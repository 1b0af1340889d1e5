// Differential testing of the fast evaluation engine — plans
// (mc/compiler.h) lowered to register bytecode (mc/bytecode.h) and run by
// the VM (mc/vm.h), MSO set quantifiers included — against the recursive
// reference interpreter. The contract under test: for every
// formula, graph, and tuple, both engines return identical verdicts,
// identical EvalStats work counts, and — under a governor — identical cut
// points (status, work_used, checkpoints_passed), including trips injected
// at every single checkpoint of a run. The ERM grid must likewise be
// bit-for-bit reproducible across eval engines and thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fo/enumerate.h"
#include "fo/mso.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/generators.h"
#include "learn/dataset.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/evaluator.h"
#include "mc/vm.h"
#include "test_helpers.h"
#include "util/governor.h"
#include "util/rng.h"

namespace folearn {
namespace {

EvalOptions WithEngine(EvalEngine engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

EvalOptions Interpreted() { return WithEngine(EvalEngine::kInterpreted); }
EvalOptions Vm() { return WithEngine(EvalEngine::kVm); }

// Runs one query through both engines and checks verdict + work counts.
// The VM is exercised twice: once with a stats sink (the counting lane,
// which must mirror the interpreter's loop structure exactly) and once
// bare (the fast lane with guard specialisation, subformula memoization,
// and superinstructions, which must still agree on the verdict).
void ExpectQueryParity(const Graph& graph, const FormulaRef& formula,
                       const std::vector<std::string>& vars,
                       const std::vector<Vertex>& tuple,
                       const std::string& label) {
  EvalStats interpreted_stats;
  bool interpreted = EvaluateQuery(graph, formula, vars, tuple, Interpreted(),
                                   &interpreted_stats);
  // The interpreted path never touches the plan-path timers.
  EXPECT_EQ(interpreted_stats.compile_ms, 0.0) << label;
  EXPECT_EQ(interpreted_stats.eval_ms, 0.0) << label;
  EvalStats stats;
  bool verdict = EvaluateQuery(graph, formula, vars, tuple, Vm(), &stats);
  EXPECT_EQ(verdict, interpreted) << label;
  EXPECT_EQ(stats.atom_evaluations, interpreted_stats.atom_evaluations)
      << label;
  EXPECT_EQ(stats.quantifier_branches, interpreted_stats.quantifier_branches)
      << label;
  bool fast_lane = EvaluateQuery(graph, formula, vars, tuple, Vm());
  EXPECT_EQ(fast_lane, interpreted) << label << " (fast lane)";
}

TEST(CompiledVsInterpreted, RandomFormulasAcrossFamilies) {
  const std::vector<std::string> vars = QueryVars(2);
  const std::vector<std::string> colors = {"Red", "Blue"};
  const GraphFamily families[] = {GraphFamily::kPath, GraphFamily::kCycle,
                                  GraphFamily::kErdosRenyiSparse,
                                  GraphFamily::kRandomTree};
  Rng rng(2024);
  for (GraphFamily family : families) {
    Graph graph = MakeFamilyGraph(family, 9, rng);
    AddRandomColors(graph, colors, 0.4, rng);
    for (int i = 0; i < 25; ++i) {
      FormulaRef formula = RandomFormula(rng, vars, colors,
                                         /*quantifier_budget=*/2,
                                         /*depth=*/3, /*allow_counting=*/true);
      for (int t = 0; t < 6; ++t) {
        std::vector<Vertex> tuple = {
            static_cast<Vertex>(rng.UniformIndex(graph.order())),
            static_cast<Vertex>(rng.UniformIndex(graph.order()))};
        ExpectQueryParity(graph, formula, vars, tuple,
                          std::string(FamilyName(family)) + " formula " +
                              ToString(formula) + " tuple " +
                              std::to_string(tuple[0]) + "," +
                              std::to_string(tuple[1]));
      }
    }
  }
}

TEST(CompiledVsInterpreted, EnumeratedSliceOnAllTuplesAgrees) {
  Rng rng(7);
  Graph graph = MakeRandomTree(8, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  EnumerationOptions enumeration;
  enumeration.free_variables = {"x1"};
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 2;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 300;
  std::vector<FormulaRef> formulas = EnumerateFormulas(enumeration);
  ASSERT_GT(formulas.size(), 50u);
  const std::vector<std::string> vars = {"x1"};
  std::vector<std::vector<Vertex>> tuples = AllTuples(graph.order(), 1);
  for (const FormulaRef& formula : formulas) {
    EvalStats interpreted_stats;
    std::vector<bool> interpreted = EvaluateOnTuples(
        graph, formula, vars, tuples, Interpreted(), &interpreted_stats);
    const std::string tag = ToString(formula);
    EvalStats stats;
    std::vector<bool> verdicts =
        EvaluateOnTuples(graph, formula, vars, tuples, Vm(), &stats);
    EXPECT_EQ(verdicts, interpreted) << tag;
    EXPECT_EQ(stats.atom_evaluations, interpreted_stats.atom_evaluations)
        << tag;
    EXPECT_EQ(stats.quantifier_branches,
              interpreted_stats.quantifier_branches)
        << tag;
  }
  // Batched and tuple-at-a-time evaluation agree too, on both engines.
  const FormulaRef spot = formulas[formulas.size() / 2];
  for (EvalEngine engine : {EvalEngine::kVm, EvalEngine::kInterpreted}) {
    std::vector<bool> batched =
        EvaluateOnTuples(graph, spot, vars, tuples, WithEngine(engine));
    for (size_t i = 0; i < tuples.size(); ++i) {
      EXPECT_EQ(
          EvaluateQuery(graph, spot, vars, tuples[i], WithEngine(engine)),
          batched[i])
          << ToString(spot) << " tuple " << i << " ["
          << EvalEngineName(engine) << "]";
    }
  }
}

TEST(CompiledVsInterpreted, GuardedShapesSpecialiseAndAgree) {
  Rng rng(41);
  Graph graph = MakeErdosRenyi(11, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  // The guard shapes the compiler recognises — the edge guard may sit
  // anywhere in the body's connective list — plus decoys with no
  // specialisable guard (wrong connective or degenerate atom) that must
  // stay unspecialised yet agree.
  struct Shape {
    const char* text;
    bool expect_guarded;
  };
  const Shape shapes[] = {
      {"exists y. (E(x, y) & Red(y))", true},
      {"forall y. (!E(x, y) | Red(y))", true},
      {"exists y. (Red(y) & E(x, y))", true},
      {"forall y. (Red(y) | !E(x, y))", true},
      {"exists y. (Red(y) & !E(x, y))", true},   // colour guard
      {"forall y. (!Red(y) | E(x, y))", true},   // ¬colour guard
      {"exists y. (Red(y) | E(x, y))", false},
      {"forall y. (E(x, y) | Red(y))", false},
      {"exists y. E(y, y)", false},
  };
  for (const Shape& shape : shapes) {
    FormulaRef formula = MustParseFormula(shape.text);
    CompiledFormula plan = CompileFormula(formula, vars);
    if (shape.expect_guarded) {
      EXPECT_GT(plan.guarded_nodes(), 0) << shape.text;
    } else {
      EXPECT_EQ(plan.guarded_nodes(), 0) << shape.text;
    }
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        std::string(shape.text) + " @" + std::to_string(v));
    }
  }
  // A maximal same-kind run fuses into one block; parity must survive it.
  // (No edge or colour guard in the inner body — a guardable inner level
  // would break the run in favour of the guarded loop.)
  FormulaRef fused =
      MustParseFormula("exists y. exists z. (Red(y) | Red(z))");
  CompiledFormula fused_plan = CompileFormula(fused, vars);
  EXPECT_GT(fused_plan.fused_levels(), 0) << "no fused quantifier block";
  for (Vertex v = 0; v < graph.order(); ++v) {
    ExpectQueryParity(graph, fused, vars, {v}, "fused @" + std::to_string(v));
  }
}

TEST(CompiledVsInterpreted, ClosedSubformulasMemoiseOncePerGraph) {
  Rng rng(5);
  Graph graph = MakePath(10);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  // "exists z. Red(z)" is sentence-valued under the outer quantifier: the
  // plan must give it a memo slot and the fast lane must compute it once.
  FormulaRef formula =
      MustParseFormula("forall y. (Red(y) | exists z. Red(z))");
  const std::vector<std::string> vars = {"x"};
  CompiledFormula plan = CompileFormula(formula, vars);
  EXPECT_GT(plan.num_memo_slots(), 0);
  LoweredPlan lowered = LowerPlan(plan);
  VmEvaluator evaluator(plan, lowered, graph);
  for (Vertex v = 0; v < graph.order(); ++v) {
    const std::vector<Vertex> tuple = {v};
    bool interpreted =
        EvaluateQuery(graph, formula, vars, tuple, Interpreted());
    EXPECT_EQ(evaluator.Eval(tuple), interpreted) << "memo @" << v;
  }
}

TEST(CompiledVsInterpreted, CountingAndMsoQuantifiersAgree) {
  Rng rng(13);
  Graph graph = MakeCycle(6);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  // Counting quantifiers (threshold reachable and unreachable — the
  // unreachable case exercises the early-abort branch-count parity).
  for (const char* text : {"exists>=2 y. E(x, y)", "exists>=3 y. E(x, y)",
                           "exists>=7 y. Red(y)"}) {
    FormulaRef formula = MustParseFormula(text);
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        std::string(text) + " @" + std::to_string(v));
    }
  }
  // MSO set quantifiers enumerate all 2^n masks in the same order.
  FormulaRef mso = Formula::ExistsSet(
      "S", Formula::And(Formula::SetMember("x", "S"),
                        Formula::Exists("y", Formula::And(
                                                 Formula::Edge("x", "y"),
                                                 Formula::Not(Formula::SetMember(
                                                     "y", "S"))))));
  FormulaRef mso_forall = Formula::ForallSet(
      "S", Formula::Or(Formula::SetMember("x", "S"),
                       Formula::Not(Formula::SetMember("x", "S"))));
  for (const FormulaRef& formula : {mso, mso_forall}) {
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        ToString(formula) + " @" + std::to_string(v));
    }
  }
}

// Sweeps a fault injector over EVERY checkpoint of a run: at each trip
// point the VM must latch the same status as the interpreter after the
// same number of checkpoints and work units — a governed VM run may not
// reorder, batch, or skip a single checkpoint the interpreter performs.
void ExpectCutPointParity(const Graph& graph, const FormulaRef& formula,
                          const std::vector<std::string>& vars,
                          const std::vector<Vertex>& tuple,
                          bool missing_color_is_false = false) {
  ResourceGovernor baseline;
  EvalOptions interpreted_options = Interpreted();
  interpreted_options.missing_color_is_false = missing_color_is_false;
  interpreted_options.governor = &baseline;
  bool complete_verdict =
      EvaluateQuery(graph, formula, vars, tuple, interpreted_options);
  const int64_t total = baseline.checkpoints_passed();
  for (int64_t trip = 1; trip <= total + 1; ++trip) {
    FaultInjector interpreted_injector(trip);
    ResourceGovernor interpreted_governor(GovernorLimits{}, nullptr,
                                          &interpreted_injector);
    EvalOptions iopts = Interpreted();
    iopts.missing_color_is_false = missing_color_is_false;
    iopts.governor = &interpreted_governor;
    EvalStats istats;
    bool iverdict = EvaluateQuery(graph, formula, vars, tuple, iopts, &istats);
    if (!interpreted_governor.Interrupted()) {
      // Past the last checkpoint the run completes and the verdict binds.
      EXPECT_EQ(iverdict, complete_verdict)
          << ToString(formula) << " trip=" << trip;
    }

    FaultInjector injector(trip);
    ResourceGovernor governor(GovernorLimits{}, nullptr, &injector);
    EvalOptions copts = Vm();
    copts.missing_color_is_false = missing_color_is_false;
    copts.governor = &governor;
    EvalStats cstats;
    bool cverdict = EvaluateQuery(graph, formula, vars, tuple, copts, &cstats);

    const std::string label = ToString(formula) +
                              " trip=" + std::to_string(trip) + "/" +
                              std::to_string(total);
    EXPECT_EQ(cstats.status, istats.status) << label;
    EXPECT_EQ(governor.status(), interpreted_governor.status()) << label;
    EXPECT_EQ(governor.work_used(), interpreted_governor.work_used())
        << label;
    EXPECT_EQ(governor.checkpoints_passed(),
              interpreted_governor.checkpoints_passed())
        << label;
    EXPECT_EQ(cstats.quantifier_branches, istats.quantifier_branches)
        << label;
    EXPECT_EQ(cstats.atom_evaluations, istats.atom_evaluations) << label;
    if (!interpreted_governor.Interrupted()) {
      EXPECT_EQ(cverdict, complete_verdict) << label;
    }
  }
}

TEST(CompiledVsInterpreted, GovernorCutPointsMatchAtEveryCheckpoint) {
  Rng rng(99);
  Graph graph = MakeErdosRenyi(8, 0.35, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  for (const char* text : {
           "forall y. exists z. E(y, z)",
           "exists y. (E(x, y) & Red(y))",     // guarded counting lane
           "forall y. (!E(x, y) | Red(y))",    // guarded counting lane
           "exists y. exists z. (Red(y) & E(y, z))",  // fused block
           "exists>=2 y. E(x, y)",
       }) {
    ExpectCutPointParity(graph, MustParseFormula(text), vars, {0});
  }
  // MSO cut points: one checkpoint per subset mask.
  Graph small = MakeCycle(4);
  ExpectCutPointParity(
      small,
      Formula::ExistsSet("S", Formula::Forall(
                                  "y", Formula::SetMember("y", "S"))),
      vars, {0});
}

TEST(CompiledVsInterpreted, WorkBudgetsTripIdentically) {
  Rng rng(17);
  Graph graph = MakeErdosRenyi(9, 0.3, rng);
  FormulaRef formula = MustParseFormula("forall y. exists z. E(y, z)");
  for (int64_t budget : {int64_t{1}, int64_t{3}, int64_t{10}, int64_t{64}}) {
    ResourceGovernor interpreted_governor(
        GovernorLimits{kNoLimit, budget});
    EvalOptions iopts = Interpreted();
    iopts.governor = &interpreted_governor;
    EvaluateSentence(graph, formula, iopts);
    ResourceGovernor governor(GovernorLimits{kNoLimit, budget});
    EvalOptions copts = Vm();
    copts.governor = &governor;
    EvaluateSentence(graph, formula, copts);
    const std::string label = "budget=" + std::to_string(budget);
    EXPECT_EQ(governor.status(), interpreted_governor.status()) << label;
    EXPECT_EQ(governor.work_used(), interpreted_governor.work_used())
        << label;
  }
}

// The E9 grid: training error, formulas tried, run status, and serialised
// model bytes must be identical across {interpreted, vm} ×
// {1, 2, 8} threads, with and without an injected governor trip mid-grid.
TEST(CompiledVsInterpreted, EnumerationErmGridIsModeAndThreadInvariant) {
  Rng rng(321);
  Graph graph = MakeRandomTree(12, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, 2 * graph.order(), rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"), QueryVars(1),
      tuples);
  FlipLabels(examples, 0.3, rng);
  EnumerationOptions enumeration;
  enumeration.colors = {"Red"};
  enumeration.max_quantifier_rank = 1;
  enumeration.max_boolean_depth = 1;
  enumeration.max_count = 400;

  for (int64_t trip : {int64_t{0}, int64_t{57}}) {  // 0 = no fault
    EnumerationErmResult base;
    bool first = true;
    for (int threads : {1, 2, 8}) {
      for (EvalEngine engine : {EvalEngine::kInterpreted, EvalEngine::kVm}) {
        FaultInjector injector(trip > 0 ? trip : 1);
        ResourceGovernor governor(GovernorLimits{}, nullptr,
                                  trip > 0 ? &injector : nullptr);
        EvalOptions eval = WithEngine(engine);
        EnumerationErmResult result =
            EnumerationErm(graph, examples, 0, enumeration,
                           trip > 0 ? &governor : nullptr, threads, eval);
        const std::string label =
            "trip=" + std::to_string(trip) +
            " threads=" + std::to_string(threads) + " " +
            EvalEngineName(engine);
        if (trip > 0) {
          EXPECT_TRUE(IsInterrupted(result.status)) << label;
        } else {
          EXPECT_EQ(result.status, RunStatus::kComplete) << label;
        }
        if (first) {
          base = result;
          first = false;
          continue;
        }
        EXPECT_EQ(result.training_error, base.training_error) << label;
        EXPECT_EQ(result.formulas_tried, base.formulas_tried) << label;
        EXPECT_EQ(result.status, base.status) << label;
        ASSERT_EQ(result.hypothesis.formula != nullptr,
                  base.hypothesis.formula != nullptr)
            << label;
        if (base.hypothesis.formula != nullptr) {
          EXPECT_EQ(HypothesisToText(result.hypothesis),
                    HypothesisToText(base.hypothesis))
              << label;
        }
      }
    }
  }
}

TEST(CompiledVsInterpreted, TrainingErrorMatchesAcrossModes) {
  Rng rng(55);
  Graph graph = MakeRandomTree(15, rng);
  AddRandomColors(graph, {"Red"}, 0.4, rng);
  std::vector<std::vector<Vertex>> tuples =
      SampleTuples(graph.order(), 1, 40, rng);
  TrainingSet examples = LabelByQuery(
      graph, MustParseFormula("exists z. E(x1, z)"), QueryVars(1), tuples);
  FlipLabels(examples, 0.25, rng);
  Hypothesis hypothesis;
  hypothesis.query_vars = QueryVars(1);
  hypothesis.param_vars = {"y1"};
  hypothesis.parameters = {Vertex{2}};
  hypothesis.formula = MustParseFormula("E(x1, y1) | Red(x1)");
  const double reference =
      TrainingError(graph, hypothesis, examples, Interpreted());
  EXPECT_EQ(TrainingError(graph, hypothesis, examples, Vm()), reference);
  for (const LabeledExample& example : examples) {
    EXPECT_EQ(hypothesis.Classify(graph, example.tuple, Vm()),
              hypothesis.Classify(graph, example.tuple, Interpreted()));
  }
}

// VM-specific surfaces: per-opcode dispatch counters, the lower/exec
// timing split, superinstruction coverage, MSO set registers, and the
// paths that leave the fast program (an unresolved guard colour, an
// oversized plan).
TEST(CompiledVsInterpreted, VmStatsExposeDispatchCountersAndTimers) {
  Rng rng(23);
  Graph graph = MakeErdosRenyi(10, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  FormulaRef formula =
      MustParseFormula("exists y. (E(x, y) & exists z. (Red(z) & E(y, z)))");
  const std::vector<std::string> vars = {"x"};
  const std::vector<Vertex> tuple = {0};
  EvalStats vm_stats;
  EvaluateQuery(graph, formula, vars, tuple, Vm(), &vm_stats);
  ASSERT_EQ(vm_stats.vm_op_dispatches.size(),
            static_cast<size_t>(kNumVmOps));
  int64_t dispatched = 0;
  for (int64_t count : vm_stats.vm_op_dispatches) dispatched += count;
  EXPECT_GT(dispatched, 0);
  EXPECT_GE(vm_stats.lower_ms, 0.0);
  EXPECT_GT(vm_stats.exec_ms, 0.0);
  EXPECT_EQ(vm_stats.exec_ms, vm_stats.eval_ms);
  // The interpreter never populates the VM surfaces.
  EvalStats interpreted_stats;
  EvaluateQuery(graph, formula, vars, tuple, Interpreted(),
                &interpreted_stats);
  EXPECT_TRUE(interpreted_stats.vm_op_dispatches.empty());
  EXPECT_EQ(interpreted_stats.lower_ms, 0.0);
  EXPECT_EQ(interpreted_stats.exec_ms, 0.0);
}

// Colour-guarded quantifiers scan the set bits of the graph's colour
// bitsets (Graph::ColorWords) in increasing vertex order. Against the
// interpreter, a VM reused across tuples must agree on every verdict in
// both lanes, and its counting lane on every work counter, on: a small
// graph (word-parallel bodies over one word, and the same scans inside an
// MSO set-quantifier loop), a sparse graph above
// VmGraphIndex::kAutoBuildOrder (no adjacency index, so the scalar scans
// run) whose classes are empty, a singleton past vertex 4096, or dense
// (whole leading words, empty middle words, the partial last word), and a
// multi-word graph coloured after Finalize() (stale member columns).
TEST(CompiledVsInterpreted, VmColourGuardedScansMatchInterpreter) {
  const std::vector<std::string> vars = {"x"};
  const char* const texts[] = {
      "exists y. (Blue(y) & (E(x, y) | Red(y)))",
      "forall y. (!Red(y) | exists z. (Blue(z) & !E(y, z)))",
      "exists y. (Red(y) & exists z. (Blue(z) & E(y, z) & !E(x, z)))"};
  int verdicts[2] = {0, 0};
  std::vector<bool> ops_seen(kNumVmOps, false);
  auto check = [&](const Graph& graph, const std::vector<Vertex>& xs,
                   const std::string& label) {
    for (const char* text : texts) {
      // On graphs small enough for MSO, φ also runs wrapped as
      // ∀S (∃w S(w) ∨ φ), which has φ's verdict: the colour scans then run
      // inside the VM's set-quantifier loop.
      const FormulaRef plain = MustParseFormula(text);
      std::vector<FormulaRef> formulas;
      formulas.reserve(2);
      formulas.push_back(plain);
      if (graph.order() <= kMaxMsoOrder) {
        formulas.push_back(Formula::ForallSet(
            "S",
            Formula::Or(Formula::Exists("w", Formula::SetMember("w", "S")),
                        plain)));
      }
      for (const FormulaRef& formula : formulas) {
        const bool wrapped = formula != plain;
        SCOPED_TRACE(label + ": " + text + (wrapped ? " (in ∀S)" : ""));
        const CompiledFormula plan = CompileFormula(formula, vars);
        const LoweredPlan lowered = LowerPlan(plan);
        ASSERT_TRUE(lowered.supported);
        for (const VmInst& inst : lowered.fast.code) {
          ops_seen[static_cast<int>(inst.op)] = true;
        }
        VmEvaluator vm(plan, lowered, graph, Vm());
        for (Vertex x : xs) {
          const std::vector<Vertex> tuple = {x};
          EvalStats expected_stats;
          const bool expected = EvaluateQuery(graph, formula, vars, tuple,
                                              Interpreted(), &expected_stats);
          ++verdicts[expected ? 1 : 0];
          EvalStats stats;
          EXPECT_EQ(vm.Eval(tuple, &stats), expected) << x;
          EXPECT_EQ(stats.atom_evaluations, expected_stats.atom_evaluations)
              << x;
          EXPECT_EQ(stats.quantifier_branches,
                    expected_stats.quantifier_branches)
              << x;
          EXPECT_EQ(stats.status, RunStatus::kComplete) << x;
          EXPECT_EQ(vm.Eval(tuple), expected) << x << " (fast lane)";
        }
      }
    }
  };

  Rng rng(29);
  Graph small = MakeErdosRenyi(12, 0.3, rng);
  AddRandomColors(small, {"Red", "Blue"}, 0.5, rng);
  std::vector<Vertex> all_small(small.order());
  for (Vertex v = 0; v < small.order(); ++v) all_small[v] = v;
  check(small, all_small, "12-vertex ER");

  const int n = VmGraphIndex::kAutoBuildOrder + 100;
  const Graph tree = MakeRandomTree(n, rng);
  const Vertex single = VmGraphIndex::kAutoBuildOrder + 4;
  const Vertex pivot = tree.Neighbors(single)[0];
  std::vector<Vertex> dense = {pivot};
  for (Vertex v = 0; v < 128; ++v) dense.push_back(v);
  for (Vertex v = n - 40; v < n; ++v) dense.push_back(v);
  const std::vector<Vertex> empty;
  const std::vector<Vertex> singleton = {single};
  const std::vector<Vertex> xs = {0, pivot, single, n - 1};
  const struct {
    const char* name;
    const std::vector<Vertex>& red;
    const std::vector<Vertex>& blue;
  } layouts[] = {{"red dense, blue singleton", dense, singleton},
                 {"red singleton, blue dense", singleton, dense},
                 {"red empty, blue dense", empty, dense},
                 {"red dense, blue empty", dense, empty}};
  for (const auto& layout : layouts) {
    Graph graph = tree;
    const ColorId red = graph.AddColor("Red");
    const ColorId blue = graph.AddColor("Blue");
    for (Vertex v : layout.red) graph.SetColor(v, red);
    for (Vertex v : layout.blue) graph.SetColor(v, blue);
    check(graph, xs, std::string("sparse tree, ") + layout.name);
  }

  Graph recoloured = MakeErdosRenyi(150, 0.05, rng);
  AddRandomColors(recoloured, {"Red", "Blue"}, 0.3, rng);
  recoloured.Finalize();
  ASSERT_TRUE(recoloured.finalized());
  for (Vertex v = 0; v < recoloured.order(); v += 3) {
    recoloured.SetColor(v, 0, v % 2 == 0);
    recoloured.SetColor(v, 1, v % 5 != 0);
  }
  ASSERT_FALSE(recoloured.finalized());  // member columns are stale
  std::vector<Vertex> all_recoloured(recoloured.order());
  for (Vertex v = 0; v < recoloured.order(); ++v) all_recoloured[v] = v;
  check(recoloured, all_recoloured, "150-vertex ER coloured after Finalize");

  // Both guard-scan forms and the set loop ran, and the verdicts are not
  // all one value.
  EXPECT_TRUE(ops_seen[static_cast<int>(VmOp::kCScanBegin)]);
  EXPECT_TRUE(ops_seen[static_cast<int>(VmOp::kCScanAtoms)]);
  EXPECT_TRUE(ops_seen[static_cast<int>(VmOp::kSetBegin)]);
  EXPECT_GT(verdicts[0], 0);
  EXPECT_GT(verdicts[1], 0);
}

TEST(CompiledVsInterpreted, VmLowersSuperinstructionsForGuardedShapes) {
  const std::vector<std::string> vars = {"x"};
  // Neighbour scan with a foldable body, colour-class scan, equality
  // bind, counting loop: each should fuse into a superinstruction.
  for (const char* text :
       {"exists y. (E(x, y) & Red(y))", "exists y. (Red(y) & E(x, y))",
        "exists y. (y = x & Red(y))", "exists>=2 y. E(x, y)"}) {
    CompiledFormula plan = CompileFormula(MustParseFormula(text), vars);
    LoweredPlan lowered = LowerPlan(plan);
    ASSERT_TRUE(lowered.supported) << text;
    EXPECT_GT(lowered.superinstructions, 0) << text;
  }
}

TEST(CompiledVsInterpreted, VmRunsMsoPlans) {
  Graph graph = MakeCycle(5);
  FormulaRef mso = Formula::ExistsSet(
      "S", Formula::Exists("y", Formula::SetMember("y", "S")));
  CompiledFormula plan = CompileFormula(mso, {});
  LoweredPlan lowered = LowerPlan(plan);
  ASSERT_TRUE(lowered.supported);
  VmEvaluator evaluator(plan, lowered, graph);
  EXPECT_EQ(evaluator.Eval({}),
            EvaluateSentence(graph, mso, Interpreted()));
}

// A random MSO formula over the element variables `vars` and the set
// variables `sets`: atoms (colour, edge, equality, membership),
// connectives, element quantifiers (counting ones included) while
// `quantifier_budget` lasts and set quantifiers while `set_budget` lasts.
FormulaRef RandomMsoFormula(Rng& rng, std::vector<std::string> vars,
                            std::vector<std::string> sets,
                            int quantifier_budget, int set_budget,
                            int depth) {
  auto recurse = [&](int q, int s) {
    return RandomMsoFormula(rng, vars, sets, q, s, depth - 1);
  };
  if (depth <= 0 || rng.Bernoulli(0.3)) {
    const std::string& a = rng.Choose(vars);
    const std::string& b = rng.Choose(vars);
    switch (rng.UniformIndex(sets.empty() ? 3 : 5)) {
      case 0: return Formula::Color("Red", a);
      case 1: return Formula::Edge(a, b);
      case 2: return Formula::Equals(a, b);
      default: return Formula::SetMember(a, rng.Choose(sets));
    }
  }
  switch (rng.UniformIndex(5)) {
    case 0:
      return Formula::Not(recurse(quantifier_budget, set_budget));
    case 1:
      return Formula::And(recurse(quantifier_budget, set_budget),
                          recurse(quantifier_budget, set_budget));
    case 2:
      return Formula::Or(recurse(quantifier_budget, set_budget),
                         recurse(quantifier_budget, set_budget));
    case 3: {
      if (quantifier_budget == 0) break;
      const std::string var = "q" + std::to_string(quantifier_budget);
      vars.push_back(var);
      FormulaRef body = recurse(quantifier_budget - 1, set_budget);
      switch (rng.UniformIndex(3)) {
        case 0: return Formula::Exists(var, body);
        case 1: return Formula::Forall(var, body);
        default: return Formula::CountExists(2, var, body);
      }
    }
    default: {
      if (set_budget == 0) break;
      const std::string set = "S" + std::to_string(set_budget);
      sets.push_back(set);
      FormulaRef body = recurse(quantifier_budget, set_budget - 1);
      return rng.Bernoulli(0.5) ? Formula::ExistsSet(set, body)
                                : Formula::ForallSet(set, body);
    }
  }
  return Formula::Not(recurse(quantifier_budget, set_budget));
}

// MSO on the VM: random formulas under a set quantifier, plus the canned
// beyond-FO properties and a nested pair of set quantifiers, on graphs of
// up to 10 vertices. Every plan lowers; verdicts agree with the
// interpreter in both lanes, counters in the counting lane, and on the
// smallest graphs every governor cut point.
TEST(CompiledVsInterpreted, VmMsoFormulasMatchInterpreter) {
  const std::vector<std::string> vars = {"x"};
  Rng rng(4242);
  std::vector<bool> ops_seen(kNumVmOps, false);
  auto check = [&](const Graph& graph, const FormulaRef& formula,
                   bool cut_points) {
    const std::string text = ToString(formula);
    const CompiledFormula plan = CompileFormula(formula, vars);
    const LoweredPlan lowered = LowerPlan(plan);
    ASSERT_TRUE(lowered.supported) << text;
    for (const BytecodeProgram* program : {&lowered.fast, &lowered.counting}) {
      for (const VmInst& inst : program->code) {
        ops_seen[static_cast<int>(inst.op)] = true;
      }
    }
    for (Vertex v = 0; v < graph.order(); ++v) {
      ExpectQueryParity(graph, formula, vars, {v},
                        text + " n=" + std::to_string(graph.order()) +
                            " @" + std::to_string(v));
    }
    if (cut_points) ExpectCutPointParity(graph, formula, vars, {0});
  };
  const GraphFamily families[] = {GraphFamily::kPath, GraphFamily::kCycle,
                                  GraphFamily::kErdosRenyiSparse,
                                  GraphFamily::kRandomTree};
  for (GraphFamily family : families) {
    for (int n : {4, 7, 10}) {
      Graph graph = MakeFamilyGraph(family, n, rng);
      AddRandomColors(graph, {"Red"}, 0.4, rng);
      for (int i = 0; i < 10; ++i) {
        FormulaRef body = RandomMsoFormula(rng, vars, {"S"}, 2, 0, 4);
        FormulaRef formula = rng.Bernoulli(0.5)
                                 ? Formula::ExistsSet("S", body)
                                 : Formula::ForallSet("S", body);
        check(graph, formula, n == 4);
      }
      check(graph, MsoSameComponentFormula("x", "x"), false);
      for (const FormulaRef& sentence :
           {MsoConnectivitySentence(), MsoBipartiteSentence(),
            MsoIndependentDominatingSetSentence()}) {
        check(graph, sentence, n == 4);
      }
    }
  }
  // Two live set registers: a cover of V by X and Y that splits x's
  // neighbourhood.
  Graph small = MakeCycle(5);
  check(small,
        MustParseFormula("existsset X. existsset Y. (forall v. (v in X | "
                         "v in Y) & exists y. (E(x, y) & y in X & "
                         "!(y in Y)))"),
        true);
  EXPECT_TRUE(ops_seen[static_cast<int>(VmOp::kSetBegin)]);
  EXPECT_TRUE(ops_seen[static_cast<int>(VmOp::kSetNext)]);
  EXPECT_TRUE(ops_seen[static_cast<int>(VmOp::kSetMember)]);
}

// A fast-lane guard colour the graph lacks, under missing_color_is_false:
// the colour is an empty class, its row is all zeros, and the fast program
// still runs (guard scans over the empty class). Verdicts in both lanes,
// counters and cut points are the interpreter's.
TEST(CompiledVsInterpreted, VmMissingGuardColourKeepsFastProgram) {
  Rng rng(61);
  Graph graph = MakeErdosRenyi(9, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  ASSERT_FALSE(graph.FindColor("Blue").has_value());
  const std::vector<std::string> vars = {"x"};
  EvalOptions interpreted = Interpreted();
  interpreted.missing_color_is_false = true;
  EvalOptions vm = Vm();
  vm.missing_color_is_false = true;
  for (const char* text : {"exists y. (Blue(y) & !E(x, y))",
                           "forall y. (!Blue(y) | Red(y))",
                           "Red(x) | exists y. (Blue(y) & !E(x, y) & "
                           "exists z. E(y, z))",
                           "(forall y. (Blue(y) -> Red(y))) & forall y. "
                           "(Red(y) -> exists z. (E(y, z) & Red(z)))"}) {
    FormulaRef formula = MustParseFormula(text);
    CompiledFormula plan = CompileFormula(formula, vars);
    LoweredPlan lowered = LowerPlan(plan);
    ASSERT_TRUE(lowered.supported) << text;
    ASSERT_FALSE(lowered.guard_colors.empty()) << text;
    VmEvaluator evaluator(plan, lowered, graph, vm);
    EXPECT_FALSE(evaluator.counting_only()) << text;
    for (Vertex v = 0; v < graph.order(); ++v) {
      const std::vector<Vertex> tuple = {v};
      const std::string label = std::string(text) + " @" + std::to_string(v);
      EvalStats interpreted_stats;
      bool expected = EvaluateQuery(graph, formula, vars, tuple, interpreted,
                                    &interpreted_stats);
      EvalStats stats;
      EXPECT_EQ(evaluator.Eval(tuple, &stats), expected) << label;
      EXPECT_EQ(stats.atom_evaluations, interpreted_stats.atom_evaluations)
          << label;
      EXPECT_EQ(stats.quantifier_branches,
                interpreted_stats.quantifier_branches)
          << label;
      EXPECT_EQ(evaluator.Eval(tuple), expected) << label << " (fast lane)";
    }
    ExpectCutPointParity(graph, formula, vars, {0},
                         /*missing_color_is_false=*/true);
  }
}

// The same guard colour without missing_color_is_false: the interpreter
// CHECK-fails when it first evaluates the colour atom, so the evaluator
// runs the counting program for every call, which reaches the guard at
// its original position. Tuples that never reach it get the interpreter's
// verdict, counters and cut points; the others die with its message.
TEST(CompiledVsInterpreted, VmUnresolvedGuardColourRunsCountingProgram) {
  Rng rng(61);
  Graph graph = MakeErdosRenyi(9, 0.3, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  ASSERT_FALSE(graph.FindColor("Blue").has_value());
  const std::vector<std::string> vars = {"x"};
  const FormulaRef formula = MustParseFormula(
      "Red(x) | exists y. (Blue(y) & !E(x, y) & exists z. E(y, z))");
  CompiledFormula plan = CompileFormula(formula, vars);
  LoweredPlan lowered = LowerPlan(plan);
  ASSERT_TRUE(lowered.supported);
  ASSERT_FALSE(lowered.guard_colors.empty());
  VmEvaluator evaluator(plan, lowered, graph, Vm());
  EXPECT_TRUE(evaluator.counting_only());
  const ColorId red = *graph.FindColor("Red");
  int reds = 0;
  for (Vertex v = 0; v < graph.order(); ++v) {
    const std::vector<Vertex> tuple = {v};
    if (!graph.HasColor(v, red)) {
      EXPECT_DEATH(evaluator.Eval(tuple),
                   "colour 'Blue' not in the graph's vocabulary");
      EXPECT_DEATH(EvaluateQuery(graph, formula, vars, tuple, Interpreted()),
                   "colour 'Blue' not in the graph's vocabulary");
      continue;
    }
    ++reds;
    const std::string label = std::string("@").append(std::to_string(v));
    EvalStats interpreted_stats;
    bool expected = EvaluateQuery(graph, formula, vars, tuple, Interpreted(),
                                  &interpreted_stats);
    EvalStats stats;
    EXPECT_EQ(evaluator.Eval(tuple, &stats), expected) << label;
    EXPECT_EQ(stats.atom_evaluations, interpreted_stats.atom_evaluations)
        << label;
    EXPECT_EQ(stats.quantifier_branches,
              interpreted_stats.quantifier_branches)
        << label;
    EXPECT_EQ(evaluator.Eval(tuple), expected) << label << " (fast lane)";
    ExpectCutPointParity(graph, formula, vars, tuple);
  }
  EXPECT_GT(reds, 0);
}

// A trip inside a quantifier makes the interpreter's quantifier return
// false and its caller go on: the atoms evaluated after the cut (here the
// disjunct after a tripped ∀, and the conjunct after a tripped ∃ under ¬)
// count in the VM's counting program too.
TEST(CompiledVsInterpreted, VmTrippedQuantifierUnwindsLikeInterpreter) {
  Rng rng(83);
  Graph graph = MakeErdosRenyi(7, 0.4, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  const std::vector<std::string> vars = {"x"};
  for (const char* text :
       {"(forall y. Red(y)) | (Red(x) & exists z. E(x, z))",
        "!(exists y. E(x, y)) & (Red(x) | !Red(x))",
        "(exists>=2 y. Red(y)) | Red(x)"}) {
    ExpectCutPointParity(graph, MustParseFormula(text), vars, {0});
  }
}

// A shared DAG whose tree expansion lowers to more than
// kMaxLoweredInstructions: level i+1 is (x = y ∧ D_i) ∨ (x ≠ y ∧ D_i), so
// the DAG grows linearly and the expansion doubles per level (about 2^21
// atoms at 19 levels), while the interpreter reads one D_i per level.
// The plan keeps its source, LowerPlan leaves it unsupported, and the
// VM's verdicts, counters and cut points are the interpreter's.
TEST(CompiledVsInterpreted, VmOversizedPlanRunsInterpreter) {
  const FormulaRef pinned = Formula::Equals("x", "y");
  FormulaRef level = Formula::And(Formula::Edge("x", "y"),
                                  Formula::Color("Red", "y"));
  for (int i = 0; i < 19; ++i) {
    level = Formula::Or(Formula::And(pinned, level),
                        Formula::And(Formula::Not(pinned), level));
  }
  const FormulaRef formula = Formula::Exists("y", level);
  const std::vector<std::string> vars = {"x"};
  const CompiledFormula plan = CompileFormula(formula, vars);
  ASSERT_EQ(plan.source(), formula);
  const LoweredPlan lowered = LowerPlan(plan);
  EXPECT_FALSE(lowered.supported);
  EXPECT_TRUE(lowered.fast.code.empty());
  EXPECT_TRUE(lowered.counting.code.empty());
  // A plan under the cap keeps no formula.
  EXPECT_EQ(CompileFormula(Formula::Exists("y", Formula::Edge("x", "y")),
                           vars)
                .source(),
            nullptr);
  // Both programs of a plan just under the cap stay within 2^20
  // instructions plus the two halts, here for a shared DAG of closed
  // counting quantifiers (memo code around a counting loop).
  FormulaRef closed = Formula::CountExists(
      2, "y", Formula::Exists("z", Formula::Edge("y", "z")));
  while (true) {
    FormulaRef doubled = Formula::Or(closed, Formula::Not(closed));
    if (CompileFormula(doubled, {}).source() != nullptr) break;
    closed = doubled;
  }
  const CompiledFormula near_cap = CompileFormula(closed, {});
  ASSERT_EQ(near_cap.source(), nullptr);
  const LoweredPlan near_cap_lowered = LowerPlan(near_cap);
  ASSERT_TRUE(near_cap_lowered.supported);
  EXPECT_LE(near_cap_lowered.fast.code.size(), (size_t{1} << 20) + 2);
  EXPECT_LE(near_cap_lowered.counting.code.size(), (size_t{1} << 20) + 2);

  Rng rng(71);
  Graph graph = MakeErdosRenyi(6, 0.5, rng);
  AddRandomColors(graph, {"Red"}, 0.5, rng);
  VmEvaluator evaluator(plan, lowered, graph, Vm());
  int verdicts[2] = {0, 0};
  for (Vertex v = 0; v < graph.order(); ++v) {
    const std::vector<Vertex> tuple = {v};
    const std::string label = "oversized @" + std::to_string(v);
    EvalStats expected_stats;
    const bool expected = EvaluateQuery(graph, formula, vars, tuple,
                                        Interpreted(), &expected_stats);
    ++verdicts[expected ? 1 : 0];
    EvalStats stats;
    EXPECT_EQ(evaluator.Eval(tuple, &stats), expected) << label;
    EXPECT_EQ(stats.atom_evaluations, expected_stats.atom_evaluations)
        << label;
    EXPECT_EQ(stats.quantifier_branches, expected_stats.quantifier_branches)
        << label;
    EXPECT_EQ(evaluator.Eval(tuple), expected) << label << " (fast lane)";
  }
  EXPECT_GT(verdicts[0], 0);
  EXPECT_GT(verdicts[1], 0);
  ExpectCutPointParity(graph, formula, vars, {0});
}

// The Assignment rework (per-name stacks + last-binding cache) must keep
// the stack semantics and the fatal misuse diagnostics.
TEST(CompiledVsInterpreted, AssignmentStackSemanticsSurviveRework) {
  Assignment assignment;
  assignment.Bind("x", 1);
  assignment.Bind("y", 2);
  assignment.Bind("x", 3);  // shadows
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(3));
  assignment.Rebind("x", 4);  // overwrites the innermost binding only
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(4));
  assignment.Unbind("x");
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(1));
  EXPECT_EQ(assignment.Lookup("y"), std::optional<Vertex>(2));
  assignment.Unbind("x");
  EXPECT_EQ(assignment.Lookup("x"), std::nullopt);
  // Emptied stacks are retained for reuse; binding again works.
  assignment.Bind("x", 7);
  EXPECT_EQ(assignment.Lookup("x"), std::optional<Vertex>(7));
}

TEST(CompiledVsInterpretedDeath, AssignmentMisuseStillDies) {
  Assignment assignment;
  EXPECT_DEATH(assignment.Rebind("ghost", 0),
               "rebinding unbound variable 'ghost'");
  EXPECT_DEATH(assignment.Unbind("ghost"),
               "unbinding unbound variable 'ghost'");
}

TEST(CompiledVsInterpretedDeath, BothEnginesRejectInvalidVertices) {
  Graph graph = MakePath(3);
  FormulaRef formula = MustParseFormula("E(x, y)");
  const std::vector<std::string> vars = {"x", "y"};
  const std::vector<Vertex> bad = {Vertex{0}, Vertex{9}};
  EXPECT_DEATH(EvaluateQuery(graph, formula, vars, bad),
               "variable 'y' bound to invalid vertex 9");
  EXPECT_DEATH(EvaluateQuery(graph, formula, vars, bad, Interpreted()),
               "variable 'y' bound to invalid vertex 9");
}

}  // namespace
}  // namespace folearn
