#ifndef FOLEARN_TYPES_TYPE_H_
#define FOLEARN_TYPES_TYPE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/algorithms.h"
#include "graph/graph.h"
#include "util/hash.h"

namespace folearn {

// Rank-q first-order types as concrete data (paper §2, "Types").
//
// The paper works with tp_q(G, v̄) = the set of all rank-q formulas
// satisfied by v̄, made finite through a syntactic normal form. The
// executable equivalent is the Ehrenfeucht–Fraïssé type tree:
//
//   tp_0(G, v̄)  = the atomic type of v̄ (colours, equalities, adjacencies);
//   tp_q(G, v̄)  = (atomic type, { tp_{q−1}(G, v̄u) : u ∈ V(G) }).
//
// Two tuples receive the same TypeId iff they satisfy exactly the same
// FO formulas of quantifier rank ≤ q (over the registry's vocabulary) — the
// standard EF/Hintikka characterisation. Types are hash-consed into a
// TypeRegistry, so comparing types is integer comparison.
//
// Local types ltp_{q,r}(G, v̄) = tp_q(N_r^G(v̄), v̄) (Fact 5) are types of
// the induced r-ball with the tuple mapped along.
//
// Counting types (FO+C, the extension the paper's conclusion asks for,
// following van Bergerem LICS 2019) are the same tree with the children
// kept as a multiset whose multiplicities are capped at the registry's
// `cap`:
//
//   tp_q(G, v̄)  = (atomic type,
//                  { tp_{q−1}(G, v̄u) : u ∈ V(G) } with multiplicities
//                  min(#u, cap)).
//
// Equal cap-T types satisfy the same FO+C formulas of rank ≤ q whose
// counting thresholds ∃^{≥t} have t ≤ T (the counting EF argument): the
// capped multiplicities are exactly what such thresholds observe. cap = 1
// is plain FO.

using TypeId = int32_t;
inline constexpr TypeId kNoType = -1;

// The quantifier-free description of a k-tuple: per-entry colour
// memberships, pairwise equalities, pairwise adjacencies, packed into bits.
class AtomicType {
 public:
  AtomicType() = default;

  // Reads the atomic type of `tuple` off `graph`.
  AtomicType(const Graph& graph, std::span<const Vertex> tuple);

  int arity() const { return arity_; }
  int num_colors() const { return num_colors_; }

  bool HasColor(int position, ColorId color) const;
  bool Equal(int i, int j) const;
  bool Adjacent(int i, int j) const;

  // The atomic type of a tuple interleaved from `a` (a tuple in A) and `b`
  // (a tuple in B) in the disjoint union A ⊔ B: bit p of `layout` set ⇔
  // output position p is the next entry of b's tuple, otherwise the next
  // of a's. Colours, equalities and adjacencies within a side are copied;
  // no equality or adjacency crosses sides. Requires equal colour counts.
  static AtomicType DisjointUnion(const AtomicType& a, const AtomicType& b,
                                  uint64_t layout);

  bool operator==(const AtomicType& other) const {
    return arity_ == other.arity_ && num_colors_ == other.num_colors_ &&
           bits_ == other.bits_;
  }

  const std::vector<uint64_t>& bits() const { return bits_; }

 private:
  int BitIndexColor(int position, ColorId color) const;
  int BitIndexEqual(int i, int j) const;
  int BitIndexAdjacent(int i, int j) const;
  bool GetBit(int index) const;
  void SetBit(int index);

  int arity_ = 0;
  int num_colors_ = 0;
  std::vector<uint64_t> bits_;
};

// One hash-consed type: the atomic part plus the sorted multiset of child
// types (rank−1 types of the extended tuples), each child id repeated
// min(multiplicity, cap) times — at cap 1 a sorted set. rank 0 ⇒ children
// empty.
struct TypeNode {
  int arity = 0;
  int rank = 0;
  AtomicType atomic;
  std::vector<TypeId> children;  // sorted; no id more than cap times
};

// Interns TypeNodes. A registry is bound to one vocabulary and one
// multiplicity cap: TypeIds are only comparable for types computed over
// graphs with that vocabulary (colour names and ids must match — this
// matters because the learner's contraction step and the hardness
// reduction both *expand* vocabularies, and each expansion level gets its
// own registry) and at that cap.
class TypeRegistry {
 public:
  explicit TypeRegistry(Vocabulary vocabulary, int cap = 1)
      : vocabulary_(std::move(vocabulary)), cap_(cap) {
    FOLEARN_CHECK_GE(cap, 1);
  }

  ~TypeRegistry() {
    if (account_ != nullptr) account_->Release(charged_bytes_);
  }

  TypeId Intern(TypeNode node);

  // Mirrors the registry's approximate footprint into a MemBudget account
  // (must outlive the registry; existing nodes are charged on attach).
  // Interned types are correctness state, not cache — growth uses forced
  // Charge, and an over-limit budget surfaces as the governor's
  // kResourceExhausted cut at the next checkpoint rather than a refusal
  // here.
  void set_mem_account(MemBudget* account) {
    if (account_ != nullptr) account_->Release(charged_bytes_);
    account_ = account;
    if (account_ != nullptr && charged_bytes_ > 0) {
      account_->Charge(charged_bytes_);
    }
  }

  // Approximate accounted footprint: node payloads plus hash-index
  // overhead, the same estimation style BallCache uses.
  int64_t approx_bytes() const { return charged_bytes_; }

  // Re-interns every node of `other` (same vocabulary and cap) into this
  // registry, children before parents (registry ids are topologically
  // ordered by construction — a node's children are interned before the
  // node itself).
  // Returns the id translation: translation[id in other] = id here.
  // Idempotent on content: merging a registry into an equal one adds
  // nothing. Used to fold per-worker registry shards from parallel sweeps
  // into one canonical registry deterministically (shard merge order is
  // fixed by the caller, and hash-consing makes re-interning
  // order-insensitive for types already present).
  std::vector<TypeId> MergeFrom(const TypeRegistry& other);

  const TypeNode& Node(TypeId id) const {
    FOLEARN_CHECK_GE(id, 0);
    FOLEARN_CHECK_LT(static_cast<size_t>(id), nodes_.size());
    return nodes_[id];
  }

  const Vocabulary& vocabulary() const { return vocabulary_; }

  // The largest child multiplicity a type records (1 = plain FO types).
  int cap() const { return cap_; }

  // Number of distinct interned types.
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

 private:
  static std::vector<int64_t> EncodeKey(const TypeNode& node);
  static int64_t ApproxNodeBytes(const TypeNode& node, size_t key_words);

  Vocabulary vocabulary_;
  int cap_;
  std::vector<TypeNode> nodes_;
  std::unordered_map<std::vector<int64_t>, TypeId, VectorHash<int64_t>>
      index_;
  int64_t charged_bytes_ = 0;
  MemBudget* account_ = nullptr;
};

// Computes rank-q types of tuples over a fixed graph, memoising across
// calls (the recursion for tp_q(v̄) visits tp_{q−1}(v̄u) for every u, so
// repeated queries share work). The graph must outlive the computer.
class TypeComputer {
 public:
  TypeComputer(const Graph& graph, TypeRegistry* registry);

  // tp_rank(G, tuple).
  TypeId Type(std::span<const Vertex> tuple, int rank);

  int64_t cache_size() const { return static_cast<int64_t>(cache_.size()); }

 private:
  const Graph& graph_;
  TypeRegistry* registry_;
  std::unordered_map<std::vector<int64_t>, TypeId, VectorHash<int64_t>>
      cache_;
};

// Builds types of disjoint unions from the types of their parts, without
// looking at any graph (Feferman–Vaught). If ā lies in A and b̄ in B, then
// tp_q(A ⊔ B, ā·b̄) is a function of tp_q(A, ā) and tp_q(B, b̄):
//
//   atomic part = the two atomic parts side by side, nothing across;
//   children    = { Compose(c, Truncate(t2)) : c ∈ children(t1) }
//               ∪ { Compose(Truncate(t1), c) : c ∈ children(t2) },
//
// where the new last position goes to the side that owns c. Children are
// multisets: the multiplicities of the images add up and are capped again,
// which is exact at every cap because min(Σ min(mᵢ, T), T) = min(Σ mᵢ, T).
// Truncate maps children the same way.
//
// For local types this is the locality fact behind Fact 5 and Lemma 15:
// when dist(v̄, w̄) > 2r + 1 the r-balls of v̄ and w̄ are disjoint and not
// adjacent, so N_r(v̄w̄) is the disjoint union of N_r(v̄) and N_r(w̄) and
// ltp_{q,r}(v̄w̄) = Compose(ltp_{q,r}(v̄), ltp_{q,r}(w̄), layout).
//
// Results are interned through the composer's registry, so hash-consing
// makes a composed TypeId equal to the one ComputeType would intern for
// the same tuple. Both operations are memoised; the memo lives as long as
// the composer and is meaningful only for its one registry.
class TypeComposer {
 public:
  // Positions are tracked in a 64-bit layout mask: a composed tuple,
  // including the positions the EF recursion appends (one per rank), must
  // stay within this arity.
  static constexpr int kMaxArity = 64;

  explicit TypeComposer(TypeRegistry* registry);
  ~TypeComposer() {
    if (account_ != nullptr) account_->Release(charged_bytes_);
  }
  TypeComposer(const TypeComposer&) = delete;
  TypeComposer& operator=(const TypeComposer&) = delete;

  // The type of the interleaved tuple in the disjoint union: t1 and t2
  // must have equal rank, and bit p of `layout` set ⇔ output position p
  // comes from t2's tuple (each side keeps its own order). The arity of
  // the result plus its rank must not exceed kMaxArity.
  TypeId Compose(TypeId t1, TypeId t2, uint64_t layout);

  // tp_{q−1}(G, v̄) from tp_q(G, v̄), q ≥ 1: the EF tree cut one level
  // short.
  TypeId Truncate(TypeId type);

  // Mirrors the memo's approximate footprint into a MemBudget account,
  // with forced charges like TypeRegistry::set_mem_account (the memo is
  // part of the registry shard's working state).
  void set_mem_account(MemBudget* account) {
    if (account_ != nullptr) account_->Release(charged_bytes_);
    account_ = account;
    if (account_ != nullptr && charged_bytes_ > 0) {
      account_->Charge(charged_bytes_);
    }
  }

 private:
  struct ComposeKey {
    TypeId t1;
    TypeId t2;
    uint64_t layout;
    bool operator==(const ComposeKey&) const = default;
  };
  struct ComposeKeyHash {
    size_t operator()(const ComposeKey& key) const {
      size_t seed = std::hash<uint64_t>()(key.layout);
      HashCombine(seed, static_cast<size_t>(key.t1));
      HashCombine(seed, static_cast<size_t>(key.t2));
      return seed;
    }
  };

  void ChargeEntry(int64_t bytes);

  TypeRegistry* registry_;
  std::unordered_map<ComposeKey, TypeId, ComposeKeyHash> composed_;
  std::unordered_map<TypeId, TypeId> truncated_;
  int64_t charged_bytes_ = 0;
  MemBudget* account_ = nullptr;
};

// One-shot tp_q(G, v̄).
TypeId ComputeType(const Graph& graph, std::span<const Vertex> tuple,
                   int rank, TypeRegistry* registry);

// Local type ltp_{q,r}(G, v̄) = tp_q(N_r^G(v̄), v̄) (paper §2 / Fact 5).
// With a non-null `ball_cache` (bound to `graph`) the r-ball is assembled
// from cached per-vertex balls instead of a fresh multi-source BFS —
// semantically identical, and much cheaper when tuple entries recur across
// calls (as the example tuples do in every ERM sweep).
TypeId ComputeLocalType(const Graph& graph, std::span<const Vertex> tuple,
                        int rank, int radius, TypeRegistry* registry,
                        BallCache* ball_cache = nullptr);

// Batch variant sharing the ball computation per tuple; returns one TypeId
// per tuple.
std::vector<TypeId> ComputeLocalTypes(
    const Graph& graph, const std::vector<std::vector<Vertex>>& tuples,
    int rank, int radius, TypeRegistry* registry);

// The Gaifman locality radius r(q) used for Fact 5: with
// r = (7^q − 1) / 2, equal (q, r)-local types imply equal q-types. The
// classical bound from Gaifman's theorem; configurable call sites may use
// smaller radii as a heuristic (documented wherever they do).
int GaifmanRadius(int rank);

}  // namespace folearn

#endif  // FOLEARN_TYPES_TYPE_H_
