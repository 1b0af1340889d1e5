#include "db/encoding.h"

namespace folearn {

namespace {

std::string RelationColorName(const std::string& relation) {
  return "Rel_" + relation;
}

std::string PositionColorName(int position) {
  return "Pos_" + std::to_string(position);
}

}  // namespace

std::string ElementColorName() { return "Elem"; }

std::vector<Vertex> EncodedDatabase::MapTuple(
    const std::vector<int>& elements) const {
  std::vector<Vertex> mapped;
  mapped.reserve(elements.size());
  for (int element : elements) mapped.push_back(VertexOf(element));
  return mapped;
}

EncodedDatabase EncodeDatabase(const Database& database) {
  EncodedDatabase encoded;
  Graph& g = encoded.graph;

  ColorId elem_color = g.AddColor(ElementColorName());
  int max_arity = 0;
  for (const RelationSchema& relation : database.schema().relations()) {
    g.AddColor(RelationColorName(relation.name));
    max_arity = std::max(max_arity, relation.arity);
  }
  std::vector<ColorId> position_colors;
  for (int i = 0; i < max_arity; ++i) {
    position_colors.push_back(g.AddColor(PositionColorName(i)));
  }

  encoded.element_vertex.resize(database.domain_size());
  for (int e = 0; e < database.domain_size(); ++e) {
    Vertex v = g.AddVertex();
    g.SetColor(v, elem_color);
    encoded.element_vertex[e] = v;
  }

  for (const RelationSchema& relation : database.schema().relations()) {
    ColorId relation_color = *g.FindColor(RelationColorName(relation.name));
    for (const std::vector<int>& tuple : database.Tuples(relation.name)) {
      Vertex tuple_vertex = g.AddVertex();
      g.SetColor(tuple_vertex, relation_color);
      for (int i = 0; i < relation.arity; ++i) {
        Vertex position_vertex = g.AddVertex();
        g.SetColor(position_vertex, position_colors[i]);
        g.AddEdge(tuple_vertex, position_vertex);
        g.AddEdge(position_vertex, encoded.element_vertex[tuple[i]]);
      }
    }
  }
  return encoded;
}

FormulaRef RelationAtom(const std::string& relation,
                        const std::vector<std::string>& vars) {
  FOLEARN_CHECK(!vars.empty());
  const std::string tuple_var = "_t";
  std::vector<FormulaRef> parts;
  parts.push_back(Formula::Color(RelationColorName(relation), tuple_var));
  for (size_t i = 0; i < vars.size(); ++i) {
    FOLEARN_CHECK_NE(vars[i], tuple_var);
    const std::string position_var = "_p";
    FOLEARN_CHECK_NE(vars[i], position_var);
    parts.push_back(Formula::Exists(
        position_var,
        Formula::And(
            {Formula::Color(PositionColorName(static_cast<int>(i)),
                            position_var),
             Formula::Edge(tuple_var, position_var),
             Formula::Edge(position_var, vars[i])})));
  }
  return Formula::Exists(tuple_var, Formula::And(std::move(parts)));
}

FormulaRef ExistsElem(const std::string& var, FormulaRef body) {
  return Formula::Exists(
      var, Formula::And(Formula::Color(ElementColorName(), var),
                        std::move(body)));
}

}  // namespace folearn
