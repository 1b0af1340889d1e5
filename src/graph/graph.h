#ifndef FOLEARN_GRAPH_GRAPH_H_
#define FOLEARN_GRAPH_GRAPH_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace folearn {

// A vertex is a 32-bit index into the graph's vertex set. 32 bits keep the
// packed CSR neighbour column at 4 bytes per entry — half the footprint and
// twice the scan bandwidth of a 64-bit id at the 10^6–10^7-vertex scale the
// sublinear-learning results are about.
using Vertex = int32_t;
inline constexpr Vertex kNoVertex = -1;

// Hard order limit: vertex ids and order+1 CSR offsets must fit in int32.
// External input beyond the limit is rejected with a Status by the loaders
// (exit 65), never silently truncated.
inline constexpr int64_t kMaxGraphOrder =
    static_cast<int64_t>(std::numeric_limits<int32_t>::max()) - 1;
// Hard limit on directed neighbour entries (2 × undirected edges) in the
// binary format.
inline constexpr uint64_t kMaxNeighborEntries = uint64_t{1} << 32;

// Checked int64 → Vertex narrowing for internal callers (generators,
// builders). A violation is a programming error and aborts; external input
// goes through the Status-returning loaders instead, which reject
// out-of-range values with a diagnostic.
inline Vertex CheckedVertex(int64_t value) {
  FOLEARN_CHECK(value >= 0 && value <= kMaxGraphOrder)
      << "vertex id " << value << " outside the 32-bit id range [0, "
      << kMaxGraphOrder << "]";
  return static_cast<Vertex>(value);
}

// A colour (unary relation symbol) identifier within a Vocabulary.
using ColorId = int32_t;

// The vocabulary τ of a coloured graph: the binary edge relation E is
// implicit, and τ additionally carries a finite list of named unary colour
// predicates P_1, …, P_ℓ (paper §2, "τ-coloured graph").
//
// Colour identifiers are dense indices in declaration order, so a vocabulary
// expansion (paper: "τ′-expansion") simply appends colours and preserves all
// existing ids.
class Vocabulary {
 public:
  Vocabulary() = default;

  // Declares a new colour. The name must be distinct from existing colours.
  ColorId AddColor(std::string name);

  // Returns the id of `name` if declared.
  std::optional<ColorId> FindColor(std::string_view name) const;

  const std::string& Name(ColorId color) const {
    FOLEARN_CHECK_GE(color, 0);
    FOLEARN_CHECK_LT(static_cast<size_t>(color), names_.size());
    return names_[color];
  }

  int size() const { return static_cast<int>(names_.size()); }

  const std::vector<std::string>& names() const { return names_; }

  bool operator==(const Vocabulary& other) const {
    return names_ == other.names_;
  }

  // True iff this vocabulary is a prefix (sub-vocabulary with identical ids)
  // of `other`, i.e. `other` is an expansion of this one.
  bool IsPrefixOf(const Vocabulary& other) const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, ColorId> index_;
};

// Opaque handle that keeps externally owned CSR columns alive — in
// practice the read-only memory mapping of a .fog file (graph/fog.h). A
// Graph viewing mapped columns holds a shared_ptr to its storage, so
// copies are cheap (the columns are shared, not duplicated) and the
// mapping lives exactly as long as the last viewer.
class GraphStorage {
 public:
  virtual ~GraphStorage() = default;
};

// An undirected, simple, vertex-coloured graph G = (V, E, P_1, …, P_ℓ)
// (paper §2), stored columnar:
//
//   * adjacency is CSR — one offsets column (order+1 entries) into one
//     packed neighbour column, each row sorted — so iteration is a
//     contiguous scan, HasEdge a binary search over a cache-line-friendly
//     slice, and the whole structure can be written to (and memory-mapped
//     back from) the .fog binary format without re-packing;
//   * every colour class is kept twice: as a dense word bitset (order/64
//     uint64 words — O(1) membership, the evaluators' colour-guard scans,
//     word-parallel algebra in the VM) and as a sorted member array (cheap
//     class scans).
//
// Construction is incremental through the same mutating API as before
// (AddVertex/AddEdge/SetColor …): a graph under construction keeps
// per-vertex adjacency vectors, and Finalize() packs them into the CSR
// columns by pointer-bumping. Reads work in either state; mutating a
// finalized graph transparently unpacks back into build mode first (O(m),
// intended for surgery on small graphs, not hot paths). Loaders and
// generators hand out finalized graphs.
//
// A finalized graph may view columns owned by a GraphStorage (a
// memory-mapped .fog file) instead of its own vectors; such a graph is
// read-only until a mutation copies the viewed columns out. Const reads
// never mutate, so sharing one finalized graph across threads is safe.
class Graph {
 public:
  // Creates a graph with `order` isolated vertices over `vocabulary`,
  // in build mode.
  explicit Graph(int order = 0, Vocabulary vocabulary = Vocabulary());

  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  // Builds a finalized graph from an undirected edge list (u ≠ v;
  // duplicates deduplicated) by degree-counting + pointer-bumping into the
  // CSR columns — no per-vertex heap allocations, the construction path
  // for the at-scale generators.
  static Graph FromEdges(int32_t order,
                         std::span<const std::pair<Vertex, Vertex>> edges,
                         Vocabulary vocabulary = Vocabulary());

  // Adopts already-validated CSR columns (offsets monotone, rows sorted,
  // symmetric, irreflexive). Internal contract — loaders validate external
  // bytes before calling this.
  static Graph FromCsr(int32_t order, std::vector<uint64_t> offsets,
                       std::vector<Vertex> neighbors, Vocabulary vocabulary);

  // One colour's columns inside externally owned storage.
  struct MappedColor {
    std::span<const uint64_t> words;
    std::span<const Vertex> members;
  };

  // Adopts CSR + colour columns living inside `storage` (a memory-mapped
  // .fog file) zero-copy. The fog loader validates every column first.
  static Graph FromMappedCsr(int32_t order, std::span<const uint64_t> offsets,
                             std::span<const Vertex> neighbors,
                             Vocabulary vocabulary,
                             std::vector<MappedColor> colors,
                             std::shared_ptr<const GraphStorage> storage);

  // Number of vertices |V(G)| (paper: the "order" of G).
  int order() const { return order_; }

  // Number of undirected edges.
  int64_t EdgeCount() const { return edge_count_; }

  // True once the adjacency lives in the packed CSR columns (and every
  // colour's member array is current). Mutations clear it; Finalize()
  // restores it.
  bool finalized() const { return finalized_ && dirty_colors_ == 0; }

  // Packs build-mode adjacency into the CSR columns and (re)builds member
  // arrays for any colour touched since the last call. Idempotent; cheap
  // when only colours changed.
  void Finalize();

  // Appends a fresh isolated vertex and returns it.
  Vertex AddVertex();

  // Appends `count` fresh isolated vertices; returns the first one.
  Vertex AddVertices(int count);

  // Inserts the undirected edge {u, v}. Requires u ≠ v. Idempotent.
  void AddEdge(Vertex u, Vertex v);

  // Removes the undirected edge {u, v} if present.
  void RemoveEdge(Vertex u, Vertex v);

  // Removes all edges incident to v (v stays in the graph, isolated).
  void IsolateVertex(Vertex v);

  bool HasEdge(Vertex u, Vertex v) const;

  // Sorted neighbour list of v: a CSR row slice (finalized) or the
  // build-mode vector (otherwise). The span is valid until the next
  // mutation of this graph.
  std::span<const Vertex> Neighbors(Vertex v) const {
    CheckVertex(v);
    if (finalized_) {
      const uint64_t begin = offsets_[v];
      return {neighbors_.data() + begin,
              static_cast<size_t>(offsets_[v + 1] - begin)};
    }
    return {dyn_adjacency_[v].data(), dyn_adjacency_[v].size()};
  }

  int Degree(Vertex v) const {
    return static_cast<int>(Neighbors(v).size());
  }

  int MaxDegree() const;

  // Raw CSR columns (finalized graphs only): offsets has order()+1
  // entries; neighbors holds 2·EdgeCount() vertex ids.
  std::span<const uint64_t> CsrOffsets() const {
    FOLEARN_CHECK(finalized_) << "CSR columns require Finalize()";
    return offsets_;
  }
  std::span<const Vertex> CsrNeighbors() const {
    FOLEARN_CHECK(finalized_) << "CSR columns require Finalize()";
    return neighbors_;
  }

  // --- Colours -------------------------------------------------------------

  const Vocabulary& vocabulary() const { return vocabulary_; }

  // Declares a new colour in this graph's vocabulary (a colour expansion;
  // all vertices start outside the new colour).
  ColorId AddColor(std::string name);

  std::optional<ColorId> FindColor(std::string_view name) const {
    return vocabulary_.FindColor(name);
  }

  void SetColor(Vertex v, ColorId color, bool member = true);

  bool HasColor(Vertex v, ColorId color) const {
    CheckVertex(v);
    CheckColor(color);
    return (colors_[color].words[static_cast<uint32_t>(v) >> 6] >>
            (v & 63)) &
           1;
  }

  // All vertices carrying `color`, in increasing order. Served from the
  // member column when current, otherwise by scanning the bitset.
  std::vector<Vertex> VerticesWithColor(ColorId color) const;

  // The sorted member column of `color` — zero-copy, valid until the next
  // mutation. Requires a finalized graph (Finalize() refreshes stale
  // member arrays).
  std::span<const Vertex> ColorMembers(ColorId color) const {
    CheckColor(color);
    FOLEARN_CHECK(colors_[color].members_clean)
        << "colour member column stale; call Finalize() first";
    return colors_[color].members;
  }

  // Raw membership bitset of `color`: WordsPerColor() little-endian words,
  // bit v of word v/64 set iff v ∈ P_c(G); bits at and above order() are
  // zero. For hot inner loops (the evaluators' colour-guard scans, the
  // bytecode VM's word-parallel quantifier bodies); everything else should
  // go through HasColor.
  std::span<const uint64_t> ColorWords(ColorId color) const {
    CheckColor(color);
    return colors_[color].words;
  }

  int WordsPerColor() const { return WordCount(order_); }

  static int WordCount(int32_t order) {
    return static_cast<int>((static_cast<uint32_t>(order) + 63) / 64);
  }

  bool IsValidVertex(Vertex v) const { return v >= 0 && v < order_; }

 private:
  struct ColorClass {
    // Views: into the owned vectors below, or into mapping_'s bytes.
    std::span<const uint64_t> words;
    std::span<const Vertex> members;
    std::vector<uint64_t> owned_words;
    std::vector<Vertex> owned_members;
    // False after a SetColor until Finalize() rebuilds `members`.
    bool members_clean = true;
  };

  void CheckVertex(Vertex v) const {
    FOLEARN_CHECK(IsValidVertex(v)) << "vertex " << v << " out of range [0,"
                                    << order_ << ")";
  }
  void CheckColor(ColorId color) const {
    FOLEARN_CHECK_GE(color, 0);
    FOLEARN_CHECK_LT(color, vocabulary_.size());
  }

  // Copies mapped/viewed columns into owned vectors (no-op when already
  // owned) so they can be mutated; drops the storage handle.
  void EnsureOwnedColor(ColorId color);
  // Leaves finalized mode: materialises per-vertex adjacency vectors from
  // the CSR columns and unshares every mapped colour column.
  void Unpack();
  // Re-points the view spans at this object's own vectors where the
  // source's views pointed at *its* own vectors (copy/move support).
  void RebindViews(const Graph& source);
  void Reset();

  Vocabulary vocabulary_;
  int32_t order_ = 0;
  int64_t edge_count_ = 0;
  bool finalized_ = false;
  int dirty_colors_ = 0;  // colours whose member column is stale

  // Finalized storage (views into the owned vectors or into mapping_).
  std::span<const uint64_t> offsets_;
  std::span<const Vertex> neighbors_;
  std::vector<uint64_t> owned_offsets_;
  std::vector<Vertex> owned_neighbors_;
  std::shared_ptr<const GraphStorage> mapping_;

  // Build-mode storage (empty once finalized).
  std::vector<std::vector<Vertex>> dyn_adjacency_;

  std::vector<ColorClass> colors_;
};

// Calls visit(v) for each set bit v of a word bitset in the ColorWords
// layout, in increasing order, until a call returns true; returns whether
// one did. Colour-class scans (the evaluators' colour guards, the member
// columns) walk the bitset this way instead of testing every vertex.
template <typename Visit>
bool AnySetBit(std::span<const uint64_t> words, Visit&& visit) {
  for (size_t wi = 0; wi < words.size(); ++wi) {
    for (uint64_t word = words[wi]; word != 0; word &= word - 1) {
      if (visit(static_cast<Vertex>(wi * 64 + std::countr_zero(word)))) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace folearn

#endif  // FOLEARN_GRAPH_GRAPH_H_
