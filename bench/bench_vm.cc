// The bytecode VM's headline bench: the E9 rank-2 enumeration grid timed
// under both evaluation engines — the register VM (mc/vm.h) and the
// reference interpreter. Every graph-independent artifact (the syntactic
// enumeration, plan compilation, bytecode lowering) is hoisted out of the
// timed region via PrepareFormulas. The grid search itself is what is
// measured, so the vm/interp ratio is the engine's win, not a
// compilation-amortisation artifact.
//
// Records (via --json, aggregated into BENCH_vm.json by run_benches.sh):
//   vm/e9_grid        config "engine=<name> n=<n>"  — best-of-3 grid ms
//   vm/prepare        config "engine=vm n=<n>"      — one-time prepare ms
//   vm/lowering       config "n=<n> phase=lower|exec" — EvalStats split
//   vm/opcode_profile config "op=<name> n=<n>"      — counting-lane
//       dispatch tally per opcode (work_units = dispatches; wall_ms is the
//       profile run's exec_ms, identical across the rows of one n)
//
// run_benches.sh fails the whole run if any e9_grid VM row is slower than
// the interpreter row for the same n.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "fo/parser.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "mc/bytecode.h"
#include "mc/vm.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace folearn;

namespace {

// Per-opcode dispatch profile: one representative rank-2 guarded query run
// over every vertex through the counting lane (the lane that tallies
// dispatches), plus the lower/exec wall-clock split.
void ProfileOpcodes(const Graph& graph, int n, BenchJsonWriter& json) {
  FormulaRef formula = MustParseFormula(
      "exists y. (E(x1, y) & Red(y) & exists z. (E(y, z) & !Red(z)))");
  const std::vector<std::string> frame = QueryVars(1);
  CompiledFormula plan = CompileFormula(formula, frame);

  Stopwatch lower_watch;
  LoweredPlan lowered = LowerPlan(plan);
  double lower_ms = lower_watch.ElapsedMillis();

  EvalStats stats;
  stats.lower_ms = lower_ms;
  VmEvaluator vm(plan, lowered, graph, {});
  for (Vertex v = 0; v < graph.order(); ++v) {
    const std::vector<Vertex> tuple = {v};
    vm.Eval(tuple, &stats);
  }

  json.Record("vm/lowering", "n=" + std::to_string(n) + " phase=lower",
              stats.lower_ms, 1);
  json.Record("vm/lowering", "n=" + std::to_string(n) + " phase=exec",
              stats.exec_ms, graph.order());
  std::printf("\nopcode dispatch profile (counting lane, n = %d, "
              "lower %.3f ms, exec %.3f ms):\n\n",
              n, stats.lower_ms, stats.exec_ms);
  Table table({"opcode", "dispatches"});
  for (int op = 0; op < static_cast<int>(stats.vm_op_dispatches.size());
       ++op) {
    int64_t count = stats.vm_op_dispatches[op];
    if (count == 0) continue;
    const char* name = VmOpName(static_cast<VmOp>(op));
    table.AddRow({name, std::to_string(count)});
    json.Record("vm/opcode_profile",
                "op=" + std::string(name) + " n=" + std::to_string(n),
                stats.exec_ms, count);
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonWriter json(argc, argv);
  Rng rng(777);
  std::printf("bytecode VM vs interpreter on the E9 rank-2 enumeration "
              "grid\n(plan compilation and bytecode lowering hoisted out of "
              "the timed region)\n\n");

  Table table({"n", "formulas", "interp ms", "vm ms", "vm/interp"});
  int profiled_n = 0;
  Graph profiled_graph;
  for (int n : {12, 16, 20, 24}) {
    Graph graph = MakeRandomTree(n, rng);
    AddRandomColors(graph, {"Red"}, 0.4, rng);
    std::vector<std::vector<Vertex>> tuples =
        SampleTuples(graph.order(), 1, 8 * n, rng);
    TrainingSet examples = LabelByQuery(
        graph, MustParseFormula("exists z. (E(x1, z) & Red(z))"),
        QueryVars(1), tuples);
    FlipLabels(examples, 0.15, rng);

    EnumerationOptions enumeration;
    enumeration.free_variables = QueryVars(1);
    enumeration.colors = {"Red"};
    enumeration.max_quantifier_rank = 2;
    enumeration.max_boolean_depth = 1;
    enumeration.max_count = 4000;
    std::vector<FormulaRef> formulas = EnumerateFormulas(enumeration);

    // One-time preparation (compile + lower), outside the grid stopwatch —
    // this is what PlanCache amortises in production.
    Stopwatch prepare_watch;
    std::vector<PreparedFormula> prepared = PrepareFormulas(formulas, 1, 0);
    json.Record("vm/prepare", "engine=vm n=" + std::to_string(n),
                prepare_watch.ElapsedMillis(),
                static_cast<long long>(prepared.size()));

    // Legs in table order: interpreter, VM.
    const EvalEngine kLegs[] = {EvalEngine::kInterpreted, EvalEngine::kVm};
    const int kReps = 3;  // best-of-k: the ratio, not the noise
    double best_ms[2] = {1e300, 1e300};
    EnumerationErmResult results[2];
    for (int leg = 0; leg < 2; ++leg) {
      EvalOptions eval;
      eval.engine = kLegs[leg];
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch watch;
        results[leg] =
            EnumerationErm(graph, examples, 0, prepared, nullptr, 1, eval);
        best_ms[leg] = std::min(best_ms[leg], watch.ElapsedMillis());
      }
      json.Record("vm/e9_grid",
                  "engine=" + std::string(EvalEngineName(kLegs[leg])) +
                      " n=" + std::to_string(n),
                  best_ms[leg], results[leg].formulas_tried);
    }

    if (results[1].training_error != results[0].training_error ||
        results[1].formulas_tried != results[0].formulas_tried) {
      std::printf("VIOLATION: the VM disagrees with the interpreter on the "
                  "E9 grid!\n");
      return 1;
    }

    table.AddRow({std::to_string(n), std::to_string(results[0].formulas_tried),
                  FormatDouble(best_ms[0], 1), FormatDouble(best_ms[1], 1),
                  FormatDouble(best_ms[0] / best_ms[1], 2)});
    profiled_n = n;
    profiled_graph = graph;
  }
  table.Print();
  std::printf("\nBoth legs return identical errors and formulas_tried on "
              "every row.\n");

  ProfileOpcodes(profiled_graph, profiled_n, json);
  return 0;
}
