// End-to-end integration tests: the full pipelines a user of the library
// runs — generate → label → learn → serialise → restore → PAC-evaluate,
// relational DB → encode → learn → explain, and model checking with and
// without the learning-oracle reduction, all cross-checked against each
// other.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/encoding.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/hardness.h"
#include "learn/model_io.h"
#include "learn/nd_learner.h"
#include "learn/pac.h"
#include "learn/sublinear.h"
#include "mc/evaluator.h"
#include "util/rng.h"

namespace folearn {
namespace {

// Pipeline 1: realisable learning, serialisation, PAC evaluation.
TEST(Integration, LearnSerializeGeneralize) {
  Rng rng(7001);
  Graph g = MakeCaterpillar(20, 2);
  AddRandomColors(g, {"Flagged"}, 0.2, rng);
  FormulaRef target =
      MustParseFormula("exists z. (E(x1, z) & Flagged(z))");

  // Draw training data from the distribution (realisable, noise-free).
  auto distribution = MakeQueryDistribution(g, target, QueryVars(1), 1, 0.0);
  TrainingSet train = DrawSample(*distribution, 150, rng);

  // Learn, materialise, serialise, restore.
  ErmResult learned = TypeMajorityErm(g, train, {}, {1, 2});
  EXPECT_EQ(learned.training_error, 0.0);
  Hypothesis explicit_h = learned.hypothesis.ToExplicit();
  StatusOr<Hypothesis> restored =
      ParseHypothesis(HypothesisToText(explicit_h));
  ASSERT_TRUE(restored.ok()) << restored.status().message();

  // The restored model generalises.
  double generalization = EstimateGeneralizationError(
      [&](std::span<const Vertex> tuple) {
        return restored->Classify(g, tuple);
      },
      *distribution, 800, rng);
  EXPECT_LE(generalization, 0.05);
}

// Pipeline 2: graph round-trips through text I/O and the learners agree
// before/after.
TEST(Integration, GraphSerializationPreservesLearning) {
  Rng rng(7002);
  Graph g = MakeBoundedDegree(40, 4, 60, rng);
  AddRandomColors(g, {"Red"}, 0.3, rng);
  StatusOr<Graph> restored = ParseGraph(ToText(g));
  ASSERT_TRUE(restored.ok()) << restored.status().message();

  TrainingSet examples;
  for (Vertex v = 0; v < g.order(); ++v) {
    examples.push_back({{v}, g.Degree(v) >= 2});
  }
  ErmResult original = TypeMajorityErm(g, examples, {}, {1, 1});
  ErmResult reloaded = TypeMajorityErm(*restored, examples, {}, {1, 1});
  EXPECT_EQ(original.training_error, reloaded.training_error);
}

// Pipeline 3: the three parameter-search learners agree on the optimum
// for a parameter-demanding workload.
TEST(Integration, ThreeLearnersAgreeOnTwoHubs) {
  Graph g = DisjointCopies(MakeStar(10), 2);
  TrainingSet examples;
  for (Vertex v = 1; v <= 10; ++v) examples.push_back({{v}, true});
  for (Vertex v = 12; v <= 21; ++v) examples.push_back({{v}, false});

  ErmOptions options{1, 1};
  ErmResult brute = BruteForceErm(g, examples, 1, options);
  SublinearErmResult sub = SublinearErm(g, examples, 1, options);
  NdLearnerOptions nd_options;
  nd_options.erm.rank = 1;
  nd_options.erm.radius = 1;
  NdLearnerResult nd = LearnNowhereDense(g, examples, nd_options);

  EXPECT_EQ(brute.training_error, 0.0);
  EXPECT_EQ(sub.erm.training_error, 0.0);
  EXPECT_EQ(nd.erm.training_error, 0.0);
}

// Pipeline 4: relational database → encoding → learning → the learned
// classifier equals the intended relational query on all elements.
TEST(Integration, DatabaseLearningMatchesIntendedQuery) {
  Rng rng(7003);
  Schema schema;
  schema.AddRelation("Follows", 2);
  schema.AddRelation("Bot", 1);
  Database db(schema, 30);
  for (int i = 0; i < 30; i += 4) db.AddTuple("Bot", {i});
  for (int i = 0; i < 60; ++i) {
    int a = static_cast<int>(rng.UniformIndex(30));
    int b = static_cast<int>(rng.UniformIndex(30));
    if (a != b) db.AddTuple("Follows", {a, b});
  }
  EncodedDatabase encoded = EncodeDatabase(db);

  // Intended: x follows someone — rank 2 over the incidence encoding
  // (x — Pos_0 vertex — Follows tuple vertex, all within radius 2).
  FormulaRef intended =
      ExistsElem("b", RelationAtom("Follows", {"x1", "b"}));
  TrainingSet examples;
  std::string vars[] = {"x1"};
  for (int e = 0; e < db.domain_size(); ++e) {
    Vertex v = encoded.VertexOf(e);
    Vertex tuple[] = {v};
    examples.push_back(
        {{v}, EvaluateQuery(encoded.graph, intended, vars, tuple)});
  }
  ErmResult learned = TypeMajorityErm(encoded.graph, examples, {}, {2, 2});
  EXPECT_EQ(learned.training_error, 0.0);
}

// Pipeline 5: query answering on the reference interpreter matches
// labelling on the VM, and the ERM learner reproduces the answer set.
TEST(Integration, QueryAnsweringAndLearningAgree) {
  Rng rng(7004);
  Graph g = MakeRandomTree(35, rng);
  AddRandomColors(g, {"Red"}, 0.35, rng);
  FormulaRef query = MustParseFormula("exists z. (E(x1, z) & Red(z))");

  // Answer set via the reference interpreter.
  const std::vector<std::vector<Vertex>> tuples = AllTuples(g.order(), 1);
  EvalOptions interpreted;
  interpreted.engine = EvalEngine::kInterpreted;
  const std::vector<bool> verdicts =
      EvaluateOnTuples(g, query, QueryVars(1), tuples, interpreted);
  std::set<Vertex> answer_set;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (verdicts[i]) answer_set.insert(tuples[i][0]);
  }

  // Labels via the VM.
  TrainingSet examples =
      LabelByQuery(g, query, QueryVars(1), tuples);
  for (const LabeledExample& example : examples) {
    EXPECT_EQ(example.label, answer_set.count(example.tuple[0]) > 0);
  }

  // The learner reproduces the answer set exactly.
  ErmResult learned = TypeMajorityErm(g, examples, {}, {1, 2});
  EXPECT_EQ(learned.training_error, 0.0);
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    EXPECT_EQ(learned.hypothesis.Classify(g, tuple),
              answer_set.count(v) > 0);
  }
}

// Pipeline 6: Theorem 1 round trip — a sentence produced from a LEARNED
// hypothesis is model-checked through the ERM oracle.
TEST(Integration, LearnedFormulaModelCheckedViaOracle) {
  Rng rng(7005);
  Graph g = MakeRandomTree(9, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples =
      LabelByQuery(g, MustParseFormula("Red(x1)"), QueryVars(1),
                   AllTuples(g.order(), 1));
  ErmResult learned = TypeMajorityErm(g, examples, {}, {1, 1});
  Hypothesis h = learned.hypothesis.ToExplicit();
  // "Some vertex satisfies the learned hypothesis."
  FormulaRef sentence = Formula::Exists("x1", h.formula);
  ASSERT_TRUE(sentence->free_variables().empty());
  TypeErmOracle oracle;
  bool via_oracle = ModelCheckViaErm(g, sentence, oracle);
  bool direct = EvaluateSentence(g, sentence);
  EXPECT_EQ(via_oracle, direct);
}

}  // namespace
}  // namespace folearn
