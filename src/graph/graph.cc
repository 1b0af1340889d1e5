#include "graph/graph.h"

#include <algorithm>

namespace folearn {

ColorId Vocabulary::AddColor(std::string name) {
  FOLEARN_CHECK(!name.empty()) << "colour name must be non-empty";
  FOLEARN_CHECK(index_.find(name) == index_.end())
      << "duplicate colour name '" << name << "'";
  ColorId id = static_cast<ColorId>(names_.size());
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

std::optional<ColorId> Vocabulary::FindColor(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool Vocabulary::IsPrefixOf(const Vocabulary& other) const {
  if (names_.size() > other.names_.size()) return false;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != other.names_[i]) return false;
  }
  return true;
}

namespace {
// True iff `view` aliases `owned`'s buffer (an empty owned vector owns
// nothing, so a view into it cannot exist).
template <typename T>
bool ViewsOwned(std::span<const T> view, const std::vector<T>& owned) {
  return !owned.empty() && view.data() == owned.data();
}
}  // namespace

Graph::Graph(int order, Vocabulary vocabulary)
    : vocabulary_(std::move(vocabulary)) {
  FOLEARN_CHECK_GE(order, 0);
  FOLEARN_CHECK_LE(static_cast<int64_t>(order), kMaxGraphOrder);
  order_ = order;
  dyn_adjacency_.resize(order);
  colors_.resize(vocabulary_.size());
  const int words = WordCount(order_);
  for (ColorClass& c : colors_) {
    c.owned_words.assign(words, 0);
    c.words = {c.owned_words.data(), c.owned_words.size()};
  }
}

Graph::Graph(const Graph& other)
    : vocabulary_(other.vocabulary_),
      order_(other.order_),
      edge_count_(other.edge_count_),
      finalized_(other.finalized_),
      dirty_colors_(other.dirty_colors_),
      owned_offsets_(other.owned_offsets_),
      owned_neighbors_(other.owned_neighbors_),
      mapping_(other.mapping_),
      dyn_adjacency_(other.dyn_adjacency_),
      colors_(other.colors_) {
  RebindViews(other);
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    Graph copy(other);
    *this = std::move(copy);
  }
  return *this;
}

// Vector heap buffers migrate on move, so every view into an owned vector
// stays valid in the destination; only the source must be left coherent.
Graph::Graph(Graph&& other) noexcept
    : vocabulary_(std::move(other.vocabulary_)),
      order_(other.order_),
      edge_count_(other.edge_count_),
      finalized_(other.finalized_),
      dirty_colors_(other.dirty_colors_),
      offsets_(other.offsets_),
      neighbors_(other.neighbors_),
      owned_offsets_(std::move(other.owned_offsets_)),
      owned_neighbors_(std::move(other.owned_neighbors_)),
      mapping_(std::move(other.mapping_)),
      dyn_adjacency_(std::move(other.dyn_adjacency_)),
      colors_(std::move(other.colors_)) {
  other.Reset();
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    vocabulary_ = std::move(other.vocabulary_);
    order_ = other.order_;
    edge_count_ = other.edge_count_;
    finalized_ = other.finalized_;
    dirty_colors_ = other.dirty_colors_;
    offsets_ = other.offsets_;
    neighbors_ = other.neighbors_;
    owned_offsets_ = std::move(other.owned_offsets_);
    owned_neighbors_ = std::move(other.owned_neighbors_);
    mapping_ = std::move(other.mapping_);
    dyn_adjacency_ = std::move(other.dyn_adjacency_);
    colors_ = std::move(other.colors_);
    other.Reset();
  }
  return *this;
}

void Graph::Reset() {
  vocabulary_ = Vocabulary();
  order_ = 0;
  edge_count_ = 0;
  finalized_ = false;
  dirty_colors_ = 0;
  offsets_ = {};
  neighbors_ = {};
  owned_offsets_.clear();
  owned_neighbors_.clear();
  mapping_.reset();
  dyn_adjacency_.clear();
  colors_.clear();
}

void Graph::RebindViews(const Graph& source) {
  offsets_ = ViewsOwned(source.offsets_, source.owned_offsets_)
                 ? std::span<const uint64_t>(owned_offsets_)
                 : source.offsets_;
  neighbors_ = ViewsOwned(source.neighbors_, source.owned_neighbors_)
                   ? std::span<const Vertex>(owned_neighbors_)
                   : source.neighbors_;
  for (size_t i = 0; i < colors_.size(); ++i) {
    ColorClass& mine = colors_[i];
    const ColorClass& theirs = source.colors_[i];
    mine.words = ViewsOwned(theirs.words, theirs.owned_words)
                     ? std::span<const uint64_t>(mine.owned_words)
                     : theirs.words;
    mine.members = ViewsOwned(theirs.members, theirs.owned_members)
                       ? std::span<const Vertex>(mine.owned_members)
                       : theirs.members;
  }
}

Graph Graph::FromEdges(int32_t order,
                       std::span<const std::pair<Vertex, Vertex>> edges,
                       Vocabulary vocabulary) {
  FOLEARN_CHECK_GE(order, 0);
  std::vector<uint64_t> offsets(static_cast<size_t>(order) + 1, 0);
  for (const auto& [u, v] : edges) {
    FOLEARN_CHECK(u >= 0 && u < order) << "edge endpoint " << u
                                       << " out of range [0," << order << ")";
    FOLEARN_CHECK(v >= 0 && v < order) << "edge endpoint " << v
                                       << " out of range [0," << order << ")";
    FOLEARN_CHECK_NE(u, v) << "edge relation is irreflexive";
    ++offsets[static_cast<size_t>(u) + 1];
    ++offsets[static_cast<size_t>(v) + 1];
  }
  for (int32_t v = 0; v < order; ++v) offsets[v + 1] += offsets[v];
  std::vector<Vertex> neighbors(offsets[order]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }
  // Sort each row and squeeze out duplicate edges in one compaction pass.
  uint64_t write = 0;
  for (int32_t v = 0; v < order; ++v) {
    const uint64_t begin = offsets[v];
    const uint64_t end = offsets[v + 1];
    std::sort(neighbors.begin() + begin, neighbors.begin() + end);
    offsets[v] = write;
    for (uint64_t i = begin; i < end; ++i) {
      if (i > begin && neighbors[i] == neighbors[i - 1]) continue;
      neighbors[write++] = neighbors[i];
    }
  }
  offsets[order] = write;
  neighbors.resize(write);
  neighbors.shrink_to_fit();
  return FromCsr(order, std::move(offsets), std::move(neighbors),
                 std::move(vocabulary));
}

Graph Graph::FromCsr(int32_t order, std::vector<uint64_t> offsets,
                     std::vector<Vertex> neighbors, Vocabulary vocabulary) {
  FOLEARN_CHECK_EQ(offsets.size(), static_cast<size_t>(order) + 1);
  FOLEARN_CHECK_EQ(offsets.front(), 0u);
  FOLEARN_CHECK_EQ(offsets.back(), neighbors.size());
  FOLEARN_CHECK_EQ(neighbors.size() % 2, 0u);
  Graph graph(0, std::move(vocabulary));
  graph.order_ = order;
  graph.edge_count_ = static_cast<int64_t>(neighbors.size() / 2);
  graph.owned_offsets_ = std::move(offsets);
  graph.owned_neighbors_ = std::move(neighbors);
  graph.offsets_ = {graph.owned_offsets_.data(), graph.owned_offsets_.size()};
  graph.neighbors_ = {graph.owned_neighbors_.data(),
                      graph.owned_neighbors_.size()};
  graph.finalized_ = true;
  graph.dyn_adjacency_.clear();
  const int words = WordCount(order);
  for (ColorClass& c : graph.colors_) {
    c.owned_words.assign(words, 0);
    c.words = {c.owned_words.data(), c.owned_words.size()};
  }
  return graph;
}

Graph Graph::FromMappedCsr(int32_t order, std::span<const uint64_t> offsets,
                           std::span<const Vertex> neighbors,
                           Vocabulary vocabulary,
                           std::vector<MappedColor> colors,
                           std::shared_ptr<const GraphStorage> storage) {
  FOLEARN_CHECK_EQ(offsets.size(), static_cast<size_t>(order) + 1);
  FOLEARN_CHECK_EQ(static_cast<int>(colors.size()), vocabulary.size());
  Graph graph(0, std::move(vocabulary));
  graph.order_ = order;
  graph.edge_count_ = static_cast<int64_t>(neighbors.size() / 2);
  graph.offsets_ = offsets;
  graph.neighbors_ = neighbors;
  graph.mapping_ = std::move(storage);
  graph.finalized_ = true;
  graph.dyn_adjacency_.clear();
  graph.colors_.assign(colors.size(), ColorClass{});
  for (size_t i = 0; i < colors.size(); ++i) {
    graph.colors_[i].words = colors[i].words;
    graph.colors_[i].members = colors[i].members;
  }
  return graph;
}

void Graph::Finalize() {
  if (!finalized_) {
    owned_offsets_.assign(static_cast<size_t>(order_) + 1, 0);
    uint64_t total = 0;
    for (int32_t v = 0; v < order_; ++v) {
      owned_offsets_[v] = total;
      total += dyn_adjacency_[v].size();
    }
    owned_offsets_[order_] = total;
    owned_neighbors_.resize(total);
    Vertex* out = owned_neighbors_.data();
    for (int32_t v = 0; v < order_; ++v) {
      const std::vector<Vertex>& row = dyn_adjacency_[v];
      out = std::copy(row.begin(), row.end(), out);
    }
    offsets_ = {owned_offsets_.data(), owned_offsets_.size()};
    neighbors_ = {owned_neighbors_.data(), owned_neighbors_.size()};
    dyn_adjacency_.clear();
    dyn_adjacency_.shrink_to_fit();
    finalized_ = true;
  }
  if (dirty_colors_ > 0) {
    for (ColorClass& c : colors_) {
      if (c.members_clean) continue;
      c.owned_members.clear();
      AnySetBit(c.words, [&](Vertex v) {
        c.owned_members.push_back(v);
        return false;
      });
      c.members = {c.owned_members.data(), c.owned_members.size()};
      c.members_clean = true;
    }
    dirty_colors_ = 0;
  }
}

void Graph::Unpack() {
  if (!finalized_) return;
  dyn_adjacency_.assign(order_, {});
  for (int32_t v = 0; v < order_; ++v) {
    const uint64_t begin = offsets_[v];
    const uint64_t end = offsets_[v + 1];
    dyn_adjacency_[v].assign(neighbors_.begin() + begin,
                             neighbors_.begin() + end);
  }
  offsets_ = {};
  neighbors_ = {};
  owned_offsets_.clear();
  owned_offsets_.shrink_to_fit();
  owned_neighbors_.clear();
  owned_neighbors_.shrink_to_fit();
  for (ColorId c = 0; c < static_cast<ColorId>(colors_.size()); ++c) {
    EnsureOwnedColor(c);
  }
  mapping_.reset();
  finalized_ = false;
}

void Graph::EnsureOwnedColor(ColorId color) {
  ColorClass& c = colors_[color];
  if (!ViewsOwned(c.words, c.owned_words) && !c.words.empty()) {
    c.owned_words.assign(c.words.begin(), c.words.end());
    c.words = {c.owned_words.data(), c.owned_words.size()};
  }
  if (!ViewsOwned(c.members, c.owned_members) && !c.members.empty()) {
    c.owned_members.assign(c.members.begin(), c.members.end());
    c.members = {c.owned_members.data(), c.owned_members.size()};
  }
}

Vertex Graph::AddVertex() { return AddVertices(1); }

Vertex Graph::AddVertices(int count) {
  FOLEARN_CHECK_GT(count, 0);
  FOLEARN_CHECK_LE(static_cast<int64_t>(order_) + count, kMaxGraphOrder)
      << "graph order would exceed the 32-bit id limit";
  if (finalized_) Unpack();
  Vertex first = order_;
  order_ += count;
  dyn_adjacency_.resize(order_);
  const int words = WordCount(order_);
  for (ColorId c = 0; c < static_cast<ColorId>(colors_.size()); ++c) {
    EnsureOwnedColor(c);
    ColorClass& color = colors_[c];
    color.owned_words.resize(words, 0);
    color.words = {color.owned_words.data(), color.owned_words.size()};
    // Member columns stay accurate: new vertices carry no colours.
  }
  return first;
}

void Graph::AddEdge(Vertex u, Vertex v) {
  CheckVertex(u);
  CheckVertex(v);
  FOLEARN_CHECK_NE(u, v) << "edge relation is irreflexive";
  if (finalized_) Unpack();
  auto& adj_u = dyn_adjacency_[u];
  auto it = std::lower_bound(adj_u.begin(), adj_u.end(), v);
  if (it != adj_u.end() && *it == v) return;  // already present
  adj_u.insert(it, v);
  auto& adj_v = dyn_adjacency_[v];
  adj_v.insert(std::lower_bound(adj_v.begin(), adj_v.end(), u), u);
  ++edge_count_;
}

void Graph::RemoveEdge(Vertex u, Vertex v) {
  CheckVertex(u);
  CheckVertex(v);
  if (finalized_) Unpack();
  auto& adj_u = dyn_adjacency_[u];
  auto it = std::lower_bound(adj_u.begin(), adj_u.end(), v);
  if (it == adj_u.end() || *it != v) return;
  adj_u.erase(it);
  auto& adj_v = dyn_adjacency_[v];
  adj_v.erase(std::lower_bound(adj_v.begin(), adj_v.end(), u));
  --edge_count_;
}

void Graph::IsolateVertex(Vertex v) {
  CheckVertex(v);
  if (finalized_) Unpack();
  std::vector<Vertex> neighbours = dyn_adjacency_[v];
  for (Vertex u : neighbours) RemoveEdge(v, u);
}

bool Graph::HasEdge(Vertex u, Vertex v) const {
  CheckVertex(u);
  CheckVertex(v);
  std::span<const Vertex> adj_u = Neighbors(u);
  return std::binary_search(adj_u.begin(), adj_u.end(), v);
}

int Graph::MaxDegree() const {
  int max_degree = 0;
  for (Vertex v = 0; v < order_; ++v) {
    max_degree = std::max(max_degree, Degree(v));
  }
  return max_degree;
}

ColorId Graph::AddColor(std::string name) {
  ColorId id = vocabulary_.AddColor(std::move(name));
  colors_.emplace_back();
  ColorClass& c = colors_.back();
  c.owned_words.assign(WordCount(order_), 0);
  c.words = {c.owned_words.data(), c.owned_words.size()};
  return id;
}

void Graph::SetColor(Vertex v, ColorId color, bool member) {
  CheckVertex(v);
  CheckColor(color);
  ColorClass& c = colors_[color];
  const uint64_t bit = uint64_t{1} << (v & 63);
  const bool current = (c.words[static_cast<uint32_t>(v) >> 6] & bit) != 0;
  if (current == member) return;
  EnsureOwnedColor(color);
  uint64_t& word = c.owned_words[static_cast<uint32_t>(v) >> 6];
  if (member) {
    word |= bit;
  } else {
    word &= ~bit;
  }
  if (c.members_clean) {
    c.members_clean = false;
    ++dirty_colors_;
    c.owned_members.clear();
    c.members = {};
  }
}

std::vector<Vertex> Graph::VerticesWithColor(ColorId color) const {
  CheckColor(color);
  const ColorClass& c = colors_[color];
  if (c.members_clean) {
    return std::vector<Vertex>(c.members.begin(), c.members.end());
  }
  std::vector<Vertex> result;
  AnySetBit(c.words, [&](Vertex v) {
    result.push_back(v);
    return false;
  });
  return result;
}

}  // namespace folearn
