#include "types/type.h"

#include <algorithm>

namespace folearn {

namespace {

// Sorts a node's children into the registry's canonical multiset: at most
// `cap` copies of each id. Each element is kept iff fewer than `cap` copies
// of it are kept already; at cap 1 that is std::unique's pass.
void CapChildren(std::vector<TypeId>& children, int cap) {
  std::sort(children.begin(), children.end());
  auto out = children.begin();
  for (auto it = children.begin(); it != children.end(); ++it) {
    if (out - children.begin() < cap || *(out - cap) != *it) *out++ = *it;
  }
  children.erase(out, children.end());
}

}  // namespace

AtomicType::AtomicType(const Graph& graph, std::span<const Vertex> tuple)
    : arity_(static_cast<int>(tuple.size())),
      num_colors_(graph.vocabulary().size()) {
  int total_bits =
      arity_ * num_colors_ + arity_ * (arity_ - 1);  // colours + eq + adj
  bits_.assign((total_bits + 63) / 64, 0);
  for (int i = 0; i < arity_; ++i) {
    for (ColorId c = 0; c < num_colors_; ++c) {
      if (graph.HasColor(tuple[i], c)) SetBit(BitIndexColor(i, c));
    }
    for (int j = i + 1; j < arity_; ++j) {
      if (tuple[i] == tuple[j]) SetBit(BitIndexEqual(i, j));
      if (graph.HasEdge(tuple[i], tuple[j])) SetBit(BitIndexAdjacent(i, j));
    }
  }
}

AtomicType AtomicType::DisjointUnion(const AtomicType& a,
                                     const AtomicType& b, uint64_t layout) {
  FOLEARN_CHECK_EQ(a.num_colors_, b.num_colors_);
  AtomicType out;
  out.arity_ = a.arity_ + b.arity_;
  out.num_colors_ = a.num_colors_;
  FOLEARN_CHECK_LE(out.arity_, 64);
  const int total_bits =
      out.arity_ * out.num_colors_ + out.arity_ * (out.arity_ - 1);
  out.bits_.assign((total_bits + 63) / 64, 0);
  // index[p] = the position within its part of output position p (whose
  // part is bit p of `layout`). `a` and `b` may be the same object.
  std::vector<int> index(out.arity_);
  int next_a = 0;
  int next_b = 0;
  for (int p = 0; p < out.arity_; ++p) {
    index[p] = (layout >> p) & 1 ? next_b++ : next_a++;
  }
  FOLEARN_CHECK(next_a == a.arity_ && next_b == b.arity_)
      << "layout does not match the parts' arities";
  for (int p = 0; p < out.arity_; ++p) {
    const bool p_in_b = (layout >> p) & 1;
    const AtomicType& part = p_in_b ? b : a;
    for (ColorId c = 0; c < out.num_colors_; ++c) {
      if (part.HasColor(index[p], c)) out.SetBit(out.BitIndexColor(p, c));
    }
    for (int p2 = p + 1; p2 < out.arity_; ++p2) {
      if (((layout >> p2) & 1) != p_in_b) continue;
      if (part.Equal(index[p], index[p2])) {
        out.SetBit(out.BitIndexEqual(p, p2));
      }
      if (part.Adjacent(index[p], index[p2])) {
        out.SetBit(out.BitIndexAdjacent(p, p2));
      }
    }
  }
  return out;
}

int AtomicType::BitIndexColor(int position, ColorId color) const {
  return position * num_colors_ + color;
}

int AtomicType::BitIndexEqual(int i, int j) const {
  FOLEARN_CHECK_LT(i, j);
  // Pairs (i, j), i < j, enumerated row-wise.
  int pair_index = i * arity_ - i * (i + 1) / 2 + (j - i - 1);
  return arity_ * num_colors_ + pair_index;
}

int AtomicType::BitIndexAdjacent(int i, int j) const {
  return BitIndexEqual(i, j) + arity_ * (arity_ - 1) / 2;
}

bool AtomicType::GetBit(int index) const {
  return (bits_[index / 64] >> (index % 64)) & 1;
}

void AtomicType::SetBit(int index) {
  bits_[index / 64] |= uint64_t{1} << (index % 64);
}

bool AtomicType::HasColor(int position, ColorId color) const {
  FOLEARN_CHECK_GE(position, 0);
  FOLEARN_CHECK_LT(position, arity_);
  FOLEARN_CHECK_GE(color, 0);
  FOLEARN_CHECK_LT(color, num_colors_);
  return GetBit(BitIndexColor(position, color));
}

bool AtomicType::Equal(int i, int j) const {
  FOLEARN_CHECK(i >= 0 && j >= 0 && i < arity_ && j < arity_);
  if (i == j) return true;
  if (i > j) std::swap(i, j);
  return GetBit(BitIndexEqual(i, j));
}

bool AtomicType::Adjacent(int i, int j) const {
  FOLEARN_CHECK(i >= 0 && j >= 0 && i < arity_ && j < arity_);
  if (i == j) return false;
  if (i > j) std::swap(i, j);
  return GetBit(BitIndexAdjacent(i, j));
}

std::vector<int64_t> TypeRegistry::EncodeKey(const TypeNode& node) {
  std::vector<int64_t> key;
  key.reserve(3 + node.atomic.bits().size() + node.children.size());
  key.push_back(node.arity);
  key.push_back(node.rank);
  key.push_back(static_cast<int64_t>(node.atomic.bits().size()));
  for (uint64_t word : node.atomic.bits()) {
    key.push_back(static_cast<int64_t>(word));
  }
  for (TypeId child : node.children) key.push_back(child);
  return key;
}

int64_t TypeRegistry::ApproxNodeBytes(const TypeNode& node,
                                      size_t key_words) {
  // Node payload + the index entry (key vector stored in the map, hash
  // node header, bucket share) — the same estimation style BallCache's
  // kPerEntryOverhead uses.
  return static_cast<int64_t>(sizeof(TypeNode)) +
         static_cast<int64_t>(node.atomic.bits().capacity() *
                              sizeof(uint64_t)) +
         static_cast<int64_t>(node.children.capacity() * sizeof(TypeId)) +
         static_cast<int64_t>(key_words * sizeof(int64_t)) +
         static_cast<int64_t>(4 * sizeof(void*) + sizeof(TypeId));
}

TypeId TypeRegistry::Intern(TypeNode node) {
  FOLEARN_CHECK(std::is_sorted(node.children.begin(), node.children.end()));
  // Sorted, so cap_ + 1 copies of an id would put it at i and i + cap_.
  for (size_t i = cap_; i < node.children.size(); ++i) {
    FOLEARN_CHECK(node.children[i - cap_] != node.children[i])
        << "child type repeated more than cap = " << cap_ << " times";
  }
  std::vector<int64_t> key = EncodeKey(node);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  TypeId id = static_cast<TypeId>(nodes_.size());
  const int64_t cost = ApproxNodeBytes(node, key.size());
  charged_bytes_ += cost;
  if (account_ != nullptr) account_->Charge(cost);
  nodes_.push_back(std::move(node));
  index_.emplace(std::move(key), id);
  return id;
}

std::vector<TypeId> TypeRegistry::MergeFrom(const TypeRegistry& other) {
  FOLEARN_CHECK(vocabulary_ == other.vocabulary())
      << "registry merge across vocabularies";
  FOLEARN_CHECK_EQ(cap_, other.cap_) << "registry merge across caps";
  std::vector<TypeId> translation(other.nodes_.size(), kNoType);
  for (TypeId id = 0; id < static_cast<TypeId>(other.nodes_.size()); ++id) {
    TypeNode node = other.nodes_[id];
    for (TypeId& child : node.children) {
      FOLEARN_CHECK_LT(child, id) << "registry ids not topologically ordered";
      child = translation[child];
    }
    // Remapped children keep their multiplicities but may lose sortedness
    // under the new numbering (the translation is injective).
    std::sort(node.children.begin(), node.children.end());
    translation[id] = Intern(std::move(node));
  }
  return translation;
}

TypeComputer::TypeComputer(const Graph& graph, TypeRegistry* registry)
    : graph_(graph), registry_(registry) {
  FOLEARN_CHECK(registry != nullptr);
  FOLEARN_CHECK(graph.vocabulary() == registry->vocabulary())
      << "TypeRegistry vocabulary does not match the graph";
}

TypeId TypeComputer::Type(std::span<const Vertex> tuple, int rank) {
  FOLEARN_CHECK_GE(rank, 0);
  std::vector<int64_t> key;
  key.reserve(tuple.size() + 1);
  key.push_back(rank);
  for (Vertex v : tuple) key.push_back(v);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  TypeNode node;
  node.arity = static_cast<int>(tuple.size());
  node.rank = rank;
  node.atomic = AtomicType(graph_, tuple);
  if (rank > 0) {
    std::vector<Vertex> extended(tuple.begin(), tuple.end());
    extended.push_back(kNoVertex);
    for (Vertex u = 0; u < graph_.order(); ++u) {
      extended.back() = u;
      node.children.push_back(Type(extended, rank - 1));
    }
    CapChildren(node.children, registry_->cap());
  }
  TypeId id = registry_->Intern(std::move(node));
  cache_.emplace(std::move(key), id);
  return id;
}

TypeComposer::TypeComposer(TypeRegistry* registry) : registry_(registry) {
  FOLEARN_CHECK(registry != nullptr);
}

void TypeComposer::ChargeEntry(int64_t bytes) {
  charged_bytes_ += bytes;
  if (account_ != nullptr) account_->Charge(bytes);
}

TypeId TypeComposer::Truncate(TypeId type) {
  auto it = truncated_.find(type);
  if (it != truncated_.end()) return it->second;
  // Copy what is needed: interning below may move the registry's nodes.
  const TypeNode& full = registry_->Node(type);
  FOLEARN_CHECK_GE(full.rank, 1) << "a rank-0 type has no truncation";
  TypeNode node;
  node.arity = full.arity;
  node.rank = full.rank - 1;
  node.atomic = full.atomic;
  const std::vector<TypeId> children = full.children;
  if (node.rank > 0) {
    for (TypeId child : children) node.children.push_back(Truncate(child));
    CapChildren(node.children, registry_->cap());
  }
  const TypeId id = registry_->Intern(std::move(node));
  truncated_.emplace(type, id);
  ChargeEntry(static_cast<int64_t>(2 * sizeof(TypeId) + 4 * sizeof(void*)));
  return id;
}

TypeId TypeComposer::Compose(TypeId t1, TypeId t2, uint64_t layout) {
  const ComposeKey key{t1, t2, layout};
  auto it = composed_.find(key);
  if (it != composed_.end()) return it->second;
  const TypeNode& a = registry_->Node(t1);
  const TypeNode& b = registry_->Node(t2);
  FOLEARN_CHECK_EQ(a.rank, b.rank) << "composing types of unequal rank";
  const int arity = a.arity + b.arity;
  FOLEARN_CHECK_LE(arity + a.rank, kMaxArity);
  TypeNode node;
  node.arity = arity;
  node.rank = a.rank;
  node.atomic = AtomicType::DisjointUnion(a.atomic, b.atomic, layout);
  if (node.rank > 0) {
    // Copies: the recursive calls intern, which may move the nodes.
    const std::vector<TypeId> a_children = a.children;
    const std::vector<TypeId> b_children = b.children;
    const TypeId a_rest = Truncate(t1);
    const TypeId b_rest = Truncate(t2);
    // The extension vertex u becomes position `arity`: it lies in A for
    // the children of t1 and in B for the children of t2.
    const uint64_t u_in_b = layout | (uint64_t{1} << arity);
    for (TypeId c : a_children) {
      node.children.push_back(Compose(c, b_rest, layout));
    }
    for (TypeId c : b_children) {
      node.children.push_back(Compose(a_rest, c, u_in_b));
    }
    CapChildren(node.children, registry_->cap());
  }
  const TypeId id = registry_->Intern(std::move(node));
  composed_.emplace(key, id);
  ChargeEntry(static_cast<int64_t>(sizeof(ComposeKey) + sizeof(TypeId) +
                                   4 * sizeof(void*)));
  return id;
}

TypeId ComputeType(const Graph& graph, std::span<const Vertex> tuple,
                   int rank, TypeRegistry* registry) {
  TypeComputer computer(graph, registry);
  return computer.Type(tuple, rank);
}

TypeId ComputeLocalType(const Graph& graph, std::span<const Vertex> tuple,
                        int rank, int radius, TypeRegistry* registry,
                        BallCache* ball_cache) {
  if (ball_cache == nullptr) {
    NeighborhoodGraph neighborhood =
        BuildNeighborhoodGraph(graph, tuple, radius);
    return ComputeType(neighborhood.induced.graph, neighborhood.tuple, rank,
                       registry);
  }
  std::vector<Vertex> ball = ball_cache->TupleBall(tuple, radius);
  InducedSubgraph induced = BuildInducedSubgraph(graph, ball);
  return ComputeType(induced.graph, induced.MapTuple(tuple), rank, registry);
}

std::vector<TypeId> ComputeLocalTypes(
    const Graph& graph, const std::vector<std::vector<Vertex>>& tuples,
    int rank, int radius, TypeRegistry* registry) {
  std::vector<TypeId> ids;
  ids.reserve(tuples.size());
  for (const std::vector<Vertex>& tuple : tuples) {
    ids.push_back(ComputeLocalType(graph, tuple, rank, radius, registry));
  }
  return ids;
}

int GaifmanRadius(int rank) {
  FOLEARN_CHECK_GE(rank, 0);
  // (7^q − 1) / 2: 0, 3, 24, 171, …
  int64_t power = 1;
  for (int i = 0; i < rank; ++i) power *= 7;
  int64_t radius = (power - 1) / 2;
  FOLEARN_CHECK_LE(radius, 1 << 28) << "Gaifman radius overflow";
  return static_cast<int>(radius);
}

}  // namespace folearn
