#include <gtest/gtest.h>

#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/generators.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "util/rng.h"

namespace folearn {
namespace {

TEST(TrainingSetIo, RoundTrip) {
  TrainingSet examples = {{{0, 3}, true}, {{2, 2}, false}, {{4, 1}, true}};
  std::string text = TrainingSetToText(examples);
  std::string error;
  std::optional<TrainingSet> parsed = TrainingSetFromText(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 3u);
  for (size_t i = 0; i < examples.size(); ++i) {
    EXPECT_EQ((*parsed)[i].tuple, examples[i].tuple);
    EXPECT_EQ((*parsed)[i].label, examples[i].label);
  }
}

TEST(TrainingSetIo, EmptySetRoundTrips) {
  std::string text = TrainingSetToText({});
  std::optional<TrainingSet> parsed = TrainingSetFromText(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(TrainingSetIo, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(TrainingSetFromText("+ 1 2", &error).has_value());
  EXPECT_FALSE(TrainingSetFromText("examples 2\n+ 1", &error).has_value());
  EXPECT_FALSE(TrainingSetFromText("examples 1\n? 1", &error).has_value());
  EXPECT_FALSE(TrainingSetFromText("examples 1\n+ x", &error).has_value());
  EXPECT_FALSE(TrainingSetFromText("", &error).has_value());
}

TEST(TrainingSetIo, RejectsVerticesBeyondTheVertexRange) {
  std::string error;
  EXPECT_FALSE(TrainingSetFromText("examples 1\n+ 4294967297\n", &error)
                   .has_value());
  EXPECT_EQ(error, "bad vertex: 4294967297");
  EXPECT_FALSE(TrainingSetFromText("examples 1\n+ 2147483648\n", &error)
                   .has_value());
  std::optional<TrainingSet> largest =
      TrainingSetFromText("examples 1\n+ 2147483647\n", &error);
  ASSERT_TRUE(largest.has_value()) << error;
  EXPECT_EQ((*largest)[0].tuple[0], Vertex{2147483647});
}

TEST(HypothesisIo, RejectsParametersBeyondTheVertexRange) {
  std::string error;
  EXPECT_FALSE(HypothesisFromText(
                   "hypothesis k 1 ell 1\nparams 99999999999\n"
                   "formula Red(x1)\n",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "bad parameter vertex: 99999999999");
  EXPECT_FALSE(HypothesisFromText(
                   "hypothesis k 1 ell 1\nparams 2147483648\n"
                   "formula Red(x1)\n",
                   &error)
                   .has_value());
}

TEST(HypothesisIo, SplitViewsTheCanonicalFormulaLine) {
  Hypothesis h;
  h.formula = MustParseFormula("exists z. (E(x1, z) & Red(y1))");
  h.query_vars = QueryVars(1);
  h.param_vars = ParamVars(1);
  h.parameters = {3};
  const std::string text = HypothesisToText(h);
  StatusOr<HypothesisHeader> header = SplitHypothesisText(text);
  ASSERT_TRUE(header.ok()) << header.status().message();
  EXPECT_EQ(header->k, 1);
  EXPECT_EQ(header->ell, 1);
  EXPECT_EQ(header->parameters, h.parameters);
  EXPECT_EQ(header->AllVars(), h.AllVars());
  // The plan-cache key of a written model is its printed formula.
  EXPECT_EQ(header->formula, ToString(h.formula));
  StatusOr<FormulaRef> formula = ParseHypothesisFormula(*header);
  ASSERT_TRUE(formula.ok());
  EXPECT_EQ(ToString(*formula), ToString(h.formula));
}

TEST(HypothesisIo, SplitAndFullParseReportIdenticalHeaderErrors) {
  for (const char* text :
       {"formula Red(x1)", "hypothesis k 1 ell 0",
        "hypothesis k 1 ell 1\nformula Red(x1)",
        "hypothesis k one ell 0\nformula Red(x1)",
        "hypothesis k 1 ell 0\nparams x\nformula Red(x1)",
        "hypothesis k 1 ell 0\nlabel 3\nformula Red(x1)",
        "hypothesis k 1 ell 0\nformula Red(x1)\nformula Red(x1)"}) {
    StatusOr<HypothesisHeader> header = SplitHypothesisText(text);
    ASSERT_FALSE(header.ok()) << text;
    std::string error;
    EXPECT_FALSE(HypothesisFromText(text, &error).has_value()) << text;
    EXPECT_EQ(error, header.status().message()) << text;
  }
  // Formula errors surface only from the parse step.
  StatusOr<HypothesisHeader> header =
      SplitHypothesisText("hypothesis k 1 ell 0\nformula Red(zz)");
  ASSERT_TRUE(header.ok());
  StatusOr<FormulaRef> formula = ParseHypothesisFormula(*header);
  ASSERT_FALSE(formula.ok());
  EXPECT_EQ(formula.status().message(),
            "formula uses unknown free variable 'zz'");
}

TEST(HypothesisIo, RoundTripWithParameters) {
  Hypothesis h;
  h.formula = MustParseFormula("E(x1, y1) | (Red(x1) & !x1 = y2)");
  h.query_vars = QueryVars(1);
  h.param_vars = ParamVars(2);
  h.parameters = {4, 7};
  std::string text = HypothesisToText(h);
  std::string error;
  std::optional<Hypothesis> parsed = HypothesisFromText(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->parameters, h.parameters);
  EXPECT_EQ(parsed->query_vars, h.query_vars);
  EXPECT_EQ(parsed->param_vars, h.param_vars);
  // Same classification behaviour on a concrete graph.
  Graph g = MakePath(10);
  g.AddColor("Red");
  g.SetColor(2, *g.FindColor("Red"));
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    EXPECT_EQ(parsed->Classify(g, tuple), h.Classify(g, tuple)) << v;
  }
}

TEST(HypothesisIo, RejectsMalformedModels) {
  std::string error;
  EXPECT_FALSE(HypothesisFromText("formula Red(x1)", &error).has_value());
  EXPECT_FALSE(HypothesisFromText("hypothesis k 1 ell 0", &error)
                   .has_value());
  EXPECT_FALSE(HypothesisFromText(
                   "hypothesis k 1 ell 1\nformula Red(x1)", &error)
                   .has_value());  // missing params
  EXPECT_FALSE(HypothesisFromText(
                   "hypothesis k 1 ell 0\nformula Red(zz)", &error)
                   .has_value());  // unknown free variable
  EXPECT_FALSE(HypothesisFromText(
                   "hypothesis k 1 ell 0\nformula Red(x1", &error)
                   .has_value());  // parse error
}

TEST(HypothesisIo, LearnedModelSurvivesSerialization) {
  Rng rng(60);
  Graph g = MakeRandomTree(25, rng);
  AddRandomColors(g, {"Red"}, 0.4, rng);
  TrainingSet examples = LabelByQuery(
      g, MustParseFormula("exists z. (E(x1, z) & Red(z))"), QueryVars(1),
      AllTuples(g.order(), 1));
  ErmResult result = TypeMajorityErm(g, examples, {}, {1, 1});
  Hypothesis learned = result.hypothesis.ToExplicit();
  std::string text = HypothesisToText(learned);
  std::optional<Hypothesis> restored = HypothesisFromText(text);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(TrainingError(g, *restored, examples),
            TrainingError(g, learned, examples));
  for (const LabeledExample& example : examples) {
    EXPECT_EQ(restored->Classify(g, example.tuple),
              learned.Classify(g, example.tuple));
  }
}

}  // namespace
}  // namespace folearn
