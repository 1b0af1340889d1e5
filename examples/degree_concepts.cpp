// FO+C in action (the extension named in the paper's conclusion): learn
// degree-threshold concepts that plain FO cannot express at low quantifier
// rank. "x has at least t neighbours" needs rank t in plain FO (t
// pairwise-distinct witnesses) but is a rank-1 counting concept — and the
// learner exploits exactly that when its type registry counts child
// multiplicities up to t.
//
//   $ ./degree_concepts

#include <cstdio>
#include <memory>

#include "fo/printer.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "util/rng.h"
#include "util/table.h"

using namespace folearn;

int main() {
  // FO+C learning: the plain learner over a registry whose child
  // multiplicities are capped at the threshold.
  ErmOptions counting_options;
  counting_options.rank = 1;
  counting_options.radius = 1;
  Rng rng(1337);
  Graph g = MakePreferentialAttachment(120, 1, rng);
  std::printf("network: preferential attachment, %d vertices, max degree "
              "%d\n\n", g.order(), g.MaxDegree());

  Table table({"target", "FO q=1 err", "FO q=2 err", "FO+C q=1 cap=t err",
               "counting types"});
  for (int threshold : {2, 3, 4}) {
    TrainingSet examples;
    for (Vertex v = 0; v < g.order(); ++v) {
      examples.push_back({{v}, g.Degree(v) >= threshold});
    }
    ErmResult plain_q1 = TypeMajorityErm(g, examples, {}, {1, 1});
    ErmResult plain_q2 = TypeMajorityErm(g, examples, {}, {2, 1});
    ErmResult counting = TypeMajorityErm(
        g, examples, {}, counting_options,
        std::make_shared<TypeRegistry>(g.vocabulary(), threshold));
    table.AddRow({"deg >= " + std::to_string(threshold),
                  FormatDouble(plain_q1.training_error, 3),
                  FormatDouble(plain_q2.training_error, 3),
                  FormatDouble(counting.training_error, 3),
                  std::to_string(counting.distinct_types_seen)});
  }
  table.Print();

  // Show the learned FO+C formula for the deg ≥ 2 concept.
  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, g.Degree(v) >= 2});
  }
  ErmResult result =
      TypeMajorityErm(g, examples, {}, counting_options,
                      std::make_shared<TypeRegistry>(g.vocabulary(), 2));
  Hypothesis h = result.hypothesis.ToExplicit();
  std::string rendered = ToString(h.formula);
  if (rendered.size() > 300) rendered = rendered.substr(0, 300) + " …";
  std::printf("\nlearned FO+C hypothesis for deg>=2 (%s):\n  %s\n",
              DescribeFormula(h.formula).c_str(), rendered.c_str());
  std::printf("\nFO+C reaches zero error at rank 1 where plain FO needs "
              "deeper quantification —\nthe expressiveness gap the paper's "
              "conclusion points to.\n");
  return result.training_error == 0.0 ? 0 : 1;
}
