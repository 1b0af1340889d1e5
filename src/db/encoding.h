#ifndef FOLEARN_DB_ENCODING_H_
#define FOLEARN_DB_ENCODING_H_

#include <string>
#include <vector>

#include "db/database.h"
#include "fo/formula.h"
#include "graph/graph.h"

namespace folearn {

// Incidence encoding of a relational database as a coloured graph
// (the paper's "relational structures can easily be encoded as graphs"):
//
//   * one vertex per domain element, coloured `Elem`;
//   * one vertex per tuple t ∈ R, coloured `Rel_R`;
//   * one vertex per (tuple, position i), coloured `Pos_i`, with edges
//     tuple-vertex — position-vertex — element-vertex.
//
// Elements of the same tuple are at graph distance 4, so bounded-arity
// sparse databases encode to sparse (degree-bounded, nowhere dense when the
// incidence structure is) graphs, and FO queries translate with a constant
// quantifier-rank overhead of 2 per relational atom.
struct EncodedDatabase {
  Graph graph;
  // element_vertex[e] = graph vertex of domain element e.
  std::vector<Vertex> element_vertex;

  // Translates a domain element to its graph vertex.
  Vertex VertexOf(int element) const {
    FOLEARN_CHECK_GE(element, 0);
    FOLEARN_CHECK_LT(static_cast<size_t>(element), element_vertex.size());
    return element_vertex[element];
  }

  // Maps a database tuple to a graph tuple (for building training sets).
  std::vector<Vertex> MapTuple(const std::vector<int>& elements) const;
};

EncodedDatabase EncodeDatabase(const Database& database);

// The element colour of the encoding, "Elem". Tuple vertices carry
// "Rel_<name>" and position vertices "Pos_<i>" (0-based).
std::string ElementColorName();

// The graph-side translation of the relational atom R(v1, …, vr):
//   ∃t (Rel_R(t) ∧ ⋀_i ∃p (Pos_i(p) ∧ E(t, p) ∧ E(p, v_i))).
// Adds quantifier rank 2 (t plus one nested p at a time).
FormulaRef RelationAtom(const std::string& relation,
                        const std::vector<std::string>& vars);

// Element-sorted quantifier ∃x (Elem(x) ∧ φ) — queries over the encoded
// graph should range over element vertices only.
FormulaRef ExistsElem(const std::string& var, FormulaRef body);

}  // namespace folearn

#endif  // FOLEARN_DB_ENCODING_H_
