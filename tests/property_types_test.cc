// Property tests (TEST_P sweeps) for the type machinery: Fact 5 refinement,
// Hintikka self-description, type/formula agreement, and counting-type
// invariants across graph families and seeds.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "fo/parser.h"
#include "graph/algorithms.h"
#include "mc/evaluator.h"
#include "test_helpers.h"
#include "types/hintikka.h"
#include "types/type.h"

namespace folearn {
namespace {

struct FamilySeedParam {
  GraphFamily family;
  int seed;
};

std::string FamilySeedName(
    const ::testing::TestParamInfo<FamilySeedParam>& info) {
  return std::string(FamilyName(info.param.family)) + "_" +
         std::to_string(info.param.seed);
}

class TypesProperty : public ::testing::TestWithParam<FamilySeedParam> {
 protected:
  Graph MakeGraph(int n) {
    Rng rng(GetParam().seed);
    Graph g = MakeFamilyGraph(GetParam().family, n, rng);
    AddRandomColors(g, {"Red"}, 0.4, rng);
    return g;
  }
};

// Fact 5: equal (q, r(q))-local types ⇒ equal q-types.
TEST_P(TypesProperty, Fact5LocalTypesRefineGlobalTypes) {
  Graph g = MakeGraph(14);
  TypeRegistry registry(g.vocabulary());
  const int q = 1;
  const int r = GaifmanRadius(q);
  for (Vertex u = 0; u < g.order(); ++u) {
    for (Vertex v = u + 1; v < g.order(); ++v) {
      Vertex a[] = {u};
      Vertex b[] = {v};
      if (ComputeLocalType(g, a, q, r, &registry) ==
          ComputeLocalType(g, b, q, r, &registry)) {
        ASSERT_EQ(ComputeType(g, a, q, &registry),
                  ComputeType(g, b, q, &registry))
            << "u=" << u << " v=" << v;
      }
    }
  }
}

// Rank monotonicity: rank-(q+1) types refine rank-q types.
TEST_P(TypesProperty, HigherRankRefines) {
  Graph g = MakeGraph(12);
  TypeRegistry registry(g.vocabulary());
  std::map<TypeId, std::set<TypeId>> coarse_of_fine;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    TypeId fine = ComputeType(g, tuple, 2, &registry);
    TypeId coarse = ComputeType(g, tuple, 1, &registry);
    coarse_of_fine[fine].insert(coarse);
  }
  for (const auto& [fine, coarse_set] : coarse_of_fine) {
    EXPECT_EQ(coarse_set.size(), 1u)
        << "a rank-2 class split across rank-1 classes";
  }
}

// Hintikka formulas define their types exactly, at rank 1 and 2.
TEST_P(TypesProperty, HintikkaSelfDescription) {
  Graph g = MakeGraph(9);
  TypeRegistry registry(g.vocabulary());
  HintikkaBuilder builder(registry);
  std::string vars[] = {"x1"};
  for (int rank : {1, 2}) {
    std::vector<TypeId> types;
    for (Vertex v = 0; v < g.order(); ++v) {
      Vertex tuple[] = {v};
      types.push_back(ComputeType(g, tuple, rank, &registry));
    }
    for (Vertex v = 0; v < g.order(); v += 2) {
      FormulaRef phi = builder.Build(types[v], {"x1"});
      EXPECT_LE(phi->quantifier_rank(), rank);
      for (Vertex u = 0; u < g.order(); ++u) {
        Vertex tuple[] = {u};
        ASSERT_EQ(EvaluateQuery(g, phi, vars, tuple), types[u] == types[v])
            << "rank=" << rank << " u=" << u << " v=" << v;
      }
    }
  }
}

// Local Hintikka formulas relativised to radius r define local types on
// the full graph.
TEST_P(TypesProperty, LocalHintikkaOnFullGraph) {
  Graph g = MakeGraph(10);
  TypeRegistry registry(g.vocabulary());
  HintikkaBuilder builder(registry);
  const int rank = 1;
  const int radius = 2;
  std::vector<TypeId> local_types;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    local_types.push_back(
        ComputeLocalType(g, tuple, rank, radius, &registry));
  }
  std::string vars[] = {"x1"};
  for (Vertex v = 0; v < g.order(); v += 3) {
    FormulaRef phi = builder.BuildLocal(local_types[v], {"x1"}, radius);
    for (Vertex u = 0; u < g.order(); ++u) {
      Vertex tuple[] = {u};
      ASSERT_EQ(EvaluateQuery(g, phi, vars, tuple),
                local_types[u] == local_types[v])
          << "u=" << u << " v=" << v;
    }
  }
}

// Counting types with cap T refine plain types; counting Hintikka formulas
// self-describe.
TEST_P(TypesProperty, CountingTypesRefinePlainTypes) {
  Graph g = MakeGraph(12);
  TypeRegistry plain(g.vocabulary());
  TypeRegistry counting(g.vocabulary(), 3);
  std::map<TypeId, std::set<TypeId>> plain_of_counting;
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    TypeId c = ComputeType(g, tuple, 1, &counting);
    TypeId p = ComputeType(g, tuple, 1, &plain);
    plain_of_counting[c].insert(p);
  }
  for (const auto& [c, plain_set] : plain_of_counting) {
    EXPECT_EQ(plain_set.size(), 1u)
        << "a counting class split across plain classes";
  }
}

// Pair types: equal pair types imply equal evaluation of a fixed slice of
// rank-1 pair formulas.
TEST_P(TypesProperty, PairTypeAgreement) {
  Graph g = MakeGraph(8);
  TypeRegistry registry(g.vocabulary());
  const char* formulas[] = {
      "E(x1, x2)",
      "x1 = x2",
      "exists z. (E(x1, z) & E(z, x2))",
      "exists z. (E(x1, z) & Red(z))",
      "forall z. (E(x1, z) -> !E(x2, z))",
  };
  std::string vars[] = {"x1", "x2"};
  std::map<TypeId, std::vector<std::pair<Vertex, Vertex>>> classes;
  TypeComputer computer(g, &registry);
  for (Vertex a = 0; a < g.order(); ++a) {
    for (Vertex b = 0; b < g.order(); ++b) {
      Vertex tuple[] = {a, b};
      classes[computer.Type(tuple, 1)].push_back({a, b});
    }
  }
  for (const char* text : formulas) {
    FormulaRef f = MustParseFormula(text);
    if (f->quantifier_rank() > 1) continue;
    for (const auto& [type, members] : classes) {
      Vertex first[] = {members[0].first, members[0].second};
      bool expected = EvaluateQuery(g, f, vars, first);
      for (const auto& [a, b] : members) {
        Vertex tuple[] = {a, b};
        ASSERT_EQ(EvaluateQuery(g, f, vars, tuple), expected)
            << text << " (" << a << "," << b << ")";
      }
    }
  }
}

// Truncate(tp_q) = tp_{q−1}, for global and local types of single
// vertices and pairs, plain and counting (cap 2: truncation sums the capped
// multiplicities of the children that collapse together).
TEST_P(TypesProperty, TruncateDropsOneRank) {
  Graph g = MakeGraph(10);
  for (int cap : {1, 2}) {
    TypeRegistry registry(g.vocabulary(), cap);
    TypeComposer composer(&registry);
    for (int rank : {1, 2}) {
      for (Vertex u = 0; u < g.order(); ++u) {
        Vertex single[] = {u};
        Vertex pair[] = {u, (u * 7 + 3) % g.order()};
        ASSERT_EQ(composer.Truncate(ComputeType(g, single, rank, &registry)),
                  ComputeType(g, single, rank - 1, &registry))
            << "cap=" << cap << " rank=" << rank << " u=" << u;
        ASSERT_EQ(composer.Truncate(ComputeType(g, pair, rank, &registry)),
                  ComputeType(g, pair, rank - 1, &registry))
            << "cap=" << cap << " rank=" << rank << " u=" << u;
        ASSERT_EQ(
            composer.Truncate(ComputeLocalType(g, pair, rank, 1, &registry)),
            ComputeLocalType(g, pair, rank - 1, 1, &registry))
            << "cap=" << cap << " rank=" << rank << " u=" << u;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, TypesProperty,
    ::testing::Values(FamilySeedParam{GraphFamily::kPath, 31},
                      FamilySeedParam{GraphFamily::kCycle, 32},
                      FamilySeedParam{GraphFamily::kRandomTree, 33},
                      FamilySeedParam{GraphFamily::kRandomTree, 34},
                      FamilySeedParam{GraphFamily::kCaterpillar, 35},
                      FamilySeedParam{GraphFamily::kGrid, 36},
                      FamilySeedParam{GraphFamily::kBoundedDegree, 37},
                      FamilySeedParam{GraphFamily::kErdosRenyiSparse, 38},
                      FamilySeedParam{GraphFamily::kStar, 39}),
    FamilySeedName);

// Feferman–Vaught composition (TypeComposer): for a k-tuple v̄ and an
// ℓ-tuple w̄ more than 2r + 1 apart, interleaved into one tuple by a random
// layout, Compose(ltp(v̄), ltp(w̄), layout) is the directly computed
// ltp(tuple), TypeId for TypeId — for plain types (cap 1) and counting
// types (caps 2 and 3, where the two sides' capped multiplicities add).
struct ComposeParam {
  int rank;
  int colours;
  int k;
  int ell;
  int cap;
};

class ComposeProperty : public ::testing::TestWithParam<ComposeParam> {};

TEST_P(ComposeProperty, ComposeEqualsDirectLocalTypeOnFarPairs) {
  const ComposeParam p = GetParam();
  const std::vector<std::string> colours =
      p.colours == 1 ? std::vector<std::string>{"Red"}
                     : std::vector<std::string>{"Red", "Blue"};
  int checked = 0;
  for (GraphFamily family :
       {GraphFamily::kPath, GraphFamily::kRandomTree, GraphFamily::kGrid,
        GraphFamily::kErdosRenyiSparse}) {
    Rng rng(500 + 37 * static_cast<int>(family) + 11 * p.rank +
            5 * p.colours + 3 * p.k + p.ell);
    // A second component supplies pairs at infinite distance.
    Graph g = DisjointUnion(MakeFamilyGraph(family, 16, rng),
                            MakeRandomTree(6, rng));
    AddRandomColors(g, colours, 0.4, rng);
    TypeRegistry registry(g.vocabulary(), p.cap);
    TypeComposer composer(&registry);
    for (int radius : {0, 1}) {
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<Vertex> v(p.k);
        std::vector<Vertex> w(p.ell);
        for (Vertex& x : v) x = static_cast<Vertex>(rng.UniformIndex(g.order()));
        for (Vertex& x : w) x = static_cast<Vertex>(rng.UniformIndex(g.order()));
        const int dist = TupleDistance(g, v, w);
        if (dist != kUnreachable && dist <= 2 * radius + 1) continue;
        // A random interleaving with exactly ℓ positions from w̄.
        std::vector<int> from_w(p.k + p.ell, 0);
        std::fill(from_w.begin(), from_w.begin() + p.ell, 1);
        rng.Shuffle(from_w);
        uint64_t layout = 0;
        std::vector<Vertex> tuple;
        size_t next_v = 0;
        size_t next_w = 0;
        for (size_t i = 0; i < from_w.size(); ++i) {
          if (from_w[i]) layout |= uint64_t{1} << i;
          tuple.push_back(from_w[i] ? w[next_w++] : v[next_v++]);
        }
        const TypeId direct =
            ComputeLocalType(g, tuple, p.rank, radius, &registry);
        const TypeId composed = composer.Compose(
            ComputeLocalType(g, v, p.rank, radius, &registry),
            ComputeLocalType(g, w, p.rank, radius, &registry), layout);
        ASSERT_EQ(composed, direct)
            << FamilyName(family) << " radius=" << radius
            << " layout=" << layout << " trial=" << trial;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

std::string ComposeName(const ::testing::TestParamInfo<ComposeParam>& info) {
  const ComposeParam& p = info.param;
  // Appended piece by piece: GCC's inlined `"q" + std::to_string(...)`
  // raises a false -Wrestrict.
  std::string name;
  for (const auto& [label, value] :
       {std::pair<const char*, int>{"q", p.rank}, {"_colours", p.colours},
        {"_k", p.k}, {"_ell", p.ell}, {"_cap", p.cap}}) {
    name += label;
    name += std::to_string(value);
  }
  return name;
}

std::vector<ComposeParam> ComposeParams() {
  std::vector<ComposeParam> params;
  for (int rank : {0, 1, 2}) {
    for (int colours : {1, 2}) {
      for (int k : {1, 2}) {
        for (int ell : {1, 2}) {
          for (int cap : {1, 2, 3}) {
            params.push_back({rank, colours, k, ell, cap});
          }
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Compose, ComposeProperty,
                         ::testing::ValuesIn(ComposeParams()), ComposeName);

}  // namespace
}  // namespace folearn
