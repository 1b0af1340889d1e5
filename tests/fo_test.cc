#include <gtest/gtest.h>

#include "fo/enumerate.h"
#include "fo/formula.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "fo/transform.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "mc/evaluator.h"

namespace folearn {
namespace {

TEST(Formula, ConstructorsFoldConstants) {
  EXPECT_EQ(Formula::And(Formula::True(), Formula::False())->kind(),
            FormulaKind::kFalse);
  EXPECT_EQ(Formula::Or(Formula::True(), Formula::False())->kind(),
            FormulaKind::kTrue);
  EXPECT_EQ(Formula::Not(Formula::Not(Formula::Edge("x", "y")))->kind(),
            FormulaKind::kEdge);
  EXPECT_EQ(Formula::Equals("x", "x")->kind(), FormulaKind::kTrue);
  EXPECT_EQ(Formula::Edge("x", "x")->kind(), FormulaKind::kFalse);
  EXPECT_EQ(Formula::Exists("x", Formula::True())->kind(),
            FormulaKind::kTrue);
}

TEST(Formula, NaryFlattening) {
  FormulaRef a = Formula::Color("A", "x");
  FormulaRef b = Formula::Color("B", "x");
  FormulaRef c = Formula::Color("C", "x");
  FormulaRef nested = Formula::And(Formula::And(a, b), c);
  EXPECT_EQ(nested->kind(), FormulaKind::kAnd);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST(Formula, QuantifierRankAndFreeVariables) {
  FormulaRef f = MustParseFormula(
      "exists z. (E(x, z) & forall w. (E(z, w) -> Red(w)))");
  EXPECT_EQ(f->quantifier_rank(), 2);
  EXPECT_EQ(f->free_variables(), std::vector<std::string>{"x"});
  EXPECT_TRUE(f->HasFreeVariable("x"));
  EXPECT_FALSE(f->HasFreeVariable("z"));
}

TEST(Formula, SharedSubformulaDagSize) {
  FormulaRef atom = Formula::Edge("x", "y");
  FormulaRef f = Formula::Or(Formula::Not(atom), Formula::And(atom, atom));
  // And(atom, atom) dedups shared nodes; the DAG stays small.
  EXPECT_LE(f->DagSize(), 4);
}

TEST(Parser, RoundTripsThroughPrinter) {
  const char* inputs[] = {
      "E(x, y)",
      "Red(x)",
      "x = y",
      "true",
      "false",
      "!E(x, y)",
      "E(x, y) & Red(x) & Blue(y)",
      "E(x, y) | x = y",
      "exists z. E(x, z)",
      "forall z. (E(x, z) -> Red(z))",
      "exists a. forall b. (E(a, b) | a = b)",
  };
  for (const char* input : inputs) {
    FormulaRef once = MustParseFormula(input);
    FormulaRef twice = MustParseFormula(ToString(once));
    EXPECT_EQ(ToString(once), ToString(twice)) << input;
  }
}

TEST(Parser, PrecedenceNotBindsTighterThanAndThanOr) {
  FormulaRef f = MustParseFormula("!A(x) & B(x) | C(x)");
  EXPECT_EQ(f->kind(), FormulaKind::kOr);
  EXPECT_EQ(f->child(0)->kind(), FormulaKind::kAnd);
  EXPECT_EQ(f->child(0)->child(0)->kind(), FormulaKind::kNot);
}

TEST(Parser, ImplicationDesugars) {
  FormulaRef f = MustParseFormula("A(x) -> B(x)");
  EXPECT_EQ(f->kind(), FormulaKind::kOr);
  EXPECT_EQ(f->child(0)->kind(), FormulaKind::kNot);
}

TEST(Parser, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseFormula("E(x)", &error).has_value());
  EXPECT_FALSE(ParseFormula("exists . E(x, y)", &error).has_value());
  EXPECT_FALSE(ParseFormula("E(x, y) &", &error).has_value());
  EXPECT_FALSE(ParseFormula("(E(x, y)", &error).has_value());
  EXPECT_FALSE(ParseFormula("E(x, y) E(y, z)", &error).has_value());
  EXPECT_FALSE(ParseFormula("x", &error).has_value());
  EXPECT_FALSE(ParseFormula("@", &error).has_value());
  EXPECT_FALSE(ParseFormula("exists E. E(x, y)", &error).has_value());
}

TEST(Parser, CountingThresholdBeyondIntIsAParseError) {
  std::string error;
  EXPECT_FALSE(
      ParseFormula("exists>=99999999999 x. Red(x)", &error).has_value());
  EXPECT_NE(error.find("threshold"), std::string::npos) << error;
  EXPECT_FALSE(
      ParseFormula("exists>=2147483648 x. Red(x)", &error).has_value());
  EXPECT_TRUE(ParseFormula("exists>=2147483647 x. Red(x)").has_value());
}

TEST(Transform, RenameFreeVariablesSimple) {
  FormulaRef f = MustParseFormula("E(x, y) & Red(x)");
  FormulaRef renamed = RenameFreeVariables(f, {{"x", "u"}, {"y", "v"}});
  EXPECT_EQ(ToString(renamed), "E(u, v) & Red(u)");
}

TEST(Transform, RenameRespectsBinding) {
  FormulaRef f = MustParseFormula("exists x. E(x, y)");
  FormulaRef renamed = RenameFreeVariables(f, {{"x", "u"}, {"y", "v"}});
  // The bound x is untouched; only free y changes.
  EXPECT_EQ(ToString(renamed), "exists x. E(x, v)");
}

TEST(Transform, RenameAvoidsCapture) {
  // Renaming y ↦ x under a binder for x must alpha-rename the binder.
  FormulaRef f = MustParseFormula("exists x. E(x, y)");
  FormulaRef renamed = RenameFreeVariables(f, {{"y", "x"}});
  // Semantics: "y has a neighbour" with y renamed to x — the bound variable
  // must no longer be called x.
  EXPECT_NE(ToString(renamed), "exists x. E(x, x)");
  Graph g = MakePath(2);
  std::string vars[] = {"x"};
  Vertex tuple[] = {0};
  EXPECT_TRUE(EvaluateQuery(g, renamed, vars, tuple));
}

TEST(Transform, CollectVariableNames) {
  FormulaRef f = MustParseFormula("exists z. (E(x, z) & Red(w))");
  std::set<std::string> names = CollectVariableNames(f);
  EXPECT_EQ(names, (std::set<std::string>{"x", "z", "w"}));
}

TEST(Transform, EliminateVariableViaColors) {
  FormulaRef f = MustParseFormula("exists z. (E(x, z) & Red(x) & z = x)");
  FormulaRef g = EliminateVariableViaColors(
      f, "x", "Pt", "Qt", [](const std::string& color) {
        return color == "Red";
      });
  // E(x,z) ↦ Qt(z); Red(x) ↦ true (folded away); z = x ↦ Pt(z).
  EXPECT_EQ(ToString(g), "exists z. Qt(z) & Pt(z)");
  EXPECT_TRUE(g->free_variables().empty());
}

TEST(Transform, EliminateRespectsShadowing) {
  FormulaRef f = MustParseFormula("E(x, y) & exists x. E(x, y)");
  FormulaRef g = EliminateVariableViaColors(
      f, "x", "Pt", "Qt", [](const std::string&) { return false; });
  EXPECT_EQ(ToString(g), "Qt(y) & (exists x. E(x, y))");
}

TEST(Transform, ReplaceColorsWithFalse) {
  FormulaRef f = MustParseFormula("Pt(x) | (Red(x) & !Qt(x))");
  FormulaRef g = ReplaceColorsWithFalse(f, {"Pt", "Qt"});
  EXPECT_EQ(ToString(g), "Red(x)");
}

TEST(Transform, DistAtMostSemantics) {
  Graph g = MakePath(9);
  std::string vars[] = {"a", "b"};
  for (int d = 0; d <= 5; ++d) {
    FreshVariablePool pool;
    FormulaRef dist = DistAtMost("a", "b", d, pool);
    for (Vertex u : {0, 3}) {
      for (Vertex v = 0; v < g.order(); ++v) {
        Vertex tuple[] = {u, v};
        bool expected = std::abs(u - v) <= d;
        EXPECT_EQ(EvaluateQuery(g, dist, vars, tuple), expected)
            << "d=" << d << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(Transform, DistAtMostRankIsLogarithmic) {
  FreshVariablePool pool;
  EXPECT_EQ(DistAtMost("a", "b", 1, pool)->quantifier_rank(), 0);
  EXPECT_LE(DistAtMost("a", "b", 8, pool)->quantifier_rank(), 3);
  EXPECT_LE(DistAtMost("a", "b", 100, pool)->quantifier_rank(), 7);
}

TEST(Transform, RelativizeMatchesInducedBall) {
  // An r-relativised formula evaluated in G must agree with the plain
  // formula evaluated in the induced r-ball around the centre.
  Graph g = MakePath(12);
  ColorId c = AddPeriodicColor(g, "Red", 3, 0);
  (void)c;
  FormulaRef f = MustParseFormula("exists z. (E(x, z) & Red(z))");
  const int radius = 2;
  FormulaRef local = RelativizeToBall(f, {"x"}, radius);
  std::string vars[] = {"x"};
  for (Vertex v = 0; v < g.order(); ++v) {
    Vertex tuple[] = {v};
    NeighborhoodGraph nbhd = BuildNeighborhoodGraph(g, tuple, radius);
    Vertex mapped[] = {nbhd.tuple[0]};
    bool in_ball = EvaluateQuery(nbhd.induced.graph, f, vars, mapped);
    bool relativized = EvaluateQuery(g, local, vars, tuple);
    EXPECT_EQ(in_ball, relativized) << "v=" << v;
  }
}

TEST(Transform, RelativizeHandlesForall) {
  Graph g = MakePath(10);
  AddPeriodicColor(g, "Red", 2, 0);
  FormulaRef f = MustParseFormula("forall z. Red(z)");
  const int radius = 1;
  FormulaRef local = RelativizeToBall(f, {"x"}, radius);
  std::string vars[] = {"x"};
  for (Vertex v = 1; v + 1 < g.order(); ++v) {
    Vertex tuple[] = {v};
    // Ball = {v−1, v, v+1}: all red iff impossible (consecutive ints).
    EXPECT_FALSE(EvaluateQuery(g, local, vars, tuple));
  }
  // Relativised ∀ over a ball where all members are red.
  Graph h(3);  // no edges: ball of any vertex is itself
  AddPeriodicColor(h, "Red", 1, 0);
  Vertex tuple[] = {1};
  EXPECT_TRUE(EvaluateQuery(h, local, vars, tuple));
}

TEST(Enumerate, ProducesDistinctFormulasWithinBudget) {
  EnumerationOptions options;
  options.free_variables = {"x"};
  options.colors = {"Red"};
  options.max_quantifier_rank = 1;
  options.max_boolean_depth = 1;
  options.max_count = 500;
  std::vector<FormulaRef> formulas = EnumerateFormulas(options);
  EXPECT_FALSE(formulas.empty());
  EXPECT_LE(static_cast<int>(formulas.size()), 500);
  std::set<std::string> rendered;
  for (const FormulaRef& f : formulas) {
    EXPECT_LE(f->quantifier_rank(), 1);
    rendered.insert(ToString(f));
  }
  EXPECT_EQ(rendered.size(), formulas.size()) << "duplicates emitted";
}

TEST(Enumerate, ContainsBasicAtoms) {
  EnumerationOptions options;
  options.free_variables = {"x", "y"};
  options.colors = {};
  options.max_quantifier_rank = 0;
  options.max_count = 100;
  std::vector<FormulaRef> formulas = EnumerateFormulas(options);
  std::set<std::string> rendered;
  for (const FormulaRef& f : formulas) rendered.insert(ToString(f));
  EXPECT_TRUE(rendered.count("E(x, y)"));
  EXPECT_TRUE(rendered.count("x = y"));
  EXPECT_TRUE(rendered.count("!E(x, y)"));
}

}  // namespace
}  // namespace folearn
