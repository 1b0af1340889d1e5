#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "util/rng.h"

namespace folearn {
namespace {

TEST(Vocabulary, AddAndFind) {
  Vocabulary vocab;
  ColorId red = vocab.AddColor("Red");
  ColorId blue = vocab.AddColor("Blue");
  EXPECT_EQ(red, 0);
  EXPECT_EQ(blue, 1);
  EXPECT_EQ(vocab.FindColor("Red"), red);
  EXPECT_FALSE(vocab.FindColor("Green").has_value());
  EXPECT_EQ(vocab.Name(blue), "Blue");
}

TEST(Vocabulary, PrefixDetectsExpansions) {
  Vocabulary small;
  small.AddColor("A");
  Vocabulary big;
  big.AddColor("A");
  big.AddColor("B");
  EXPECT_TRUE(small.IsPrefixOf(big));
  EXPECT_FALSE(big.IsPrefixOf(small));
  EXPECT_TRUE(small.IsPrefixOf(small));
}

TEST(Graph, EdgesAreSymmetricIrreflexiveIdempotent) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // idempotent
  EXPECT_EQ(g.EdgeCount(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(ValidateGraph(g));
}

TEST(Graph, RemoveAndIsolate) {
  Graph g = MakeStar(4);
  EXPECT_EQ(g.Degree(0), 4);
  g.RemoveEdge(0, 1);
  EXPECT_EQ(g.Degree(0), 3);
  g.IsolateVertex(0);
  EXPECT_EQ(g.Degree(0), 0);
  EXPECT_EQ(g.EdgeCount(), 0);
  EXPECT_TRUE(ValidateGraph(g));
}

TEST(Graph, ColorsTrackMembership) {
  Graph g(3);
  ColorId c = g.AddColor("Mark");
  g.SetColor(1, c);
  EXPECT_FALSE(g.HasColor(0, c));
  EXPECT_TRUE(g.HasColor(1, c));
  EXPECT_EQ(g.VerticesWithColor(c), std::vector<Vertex>{1});
  g.SetColor(1, c, false);
  EXPECT_TRUE(g.VerticesWithColor(c).empty());
}

TEST(Graph, AddVertexExtendsColorSets) {
  Graph g(2);
  ColorId c = g.AddColor("C");
  Vertex v = g.AddVertex();
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(g.HasColor(v, c));
  g.SetColor(v, c);
  EXPECT_TRUE(g.HasColor(v, c));
}

TEST(BfsDistances, PathDistances) {
  Graph g = MakePath(5);
  Vertex source[] = {0};
  std::vector<int> dist = BfsDistances(g, source);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BfsDistances, RadiusCapTruncates) {
  Graph g = MakePath(5);
  Vertex source[] = {0};
  std::vector<int> dist = BfsDistances(g, source, 2);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, kUnreachable, kUnreachable}));
}

TEST(BfsDistances, MultiSource) {
  Graph g = MakePath(5);
  Vertex sources[] = {0, 4};
  std::vector<int> dist = BfsDistances(g, sources);
  EXPECT_EQ(dist, (std::vector<int>{0, 1, 2, 1, 0}));
}

TEST(TupleDistance, MinOverPairs) {
  Graph g = MakePath(6);
  Vertex us[] = {0, 1};
  Vertex vs[] = {4, 5};
  EXPECT_EQ(TupleDistance(g, us, vs), 3);
}

TEST(Distance, DisconnectedIsUnreachable) {
  Graph g(3);
  g.AddEdge(0, 1);
  EXPECT_EQ(Distance(g, 0, 2), kUnreachable);
}

TEST(Ball, MatchesPaperDefinition) {
  Graph g = MakeCycle(6);
  Vertex center[] = {0};
  EXPECT_EQ(Ball(g, center, 0), (std::vector<Vertex>{0}));
  EXPECT_EQ(Ball(g, center, 1), (std::vector<Vertex>{0, 1, 5}));
  EXPECT_EQ(Ball(g, center, 2), (std::vector<Vertex>{0, 1, 2, 4, 5}));
  EXPECT_EQ(Ball(g, center, 3).size(), 6u);
}

TEST(InducedSubgraph, KeepsEdgesAndColors) {
  Graph g = MakeCycle(5);
  ColorId c = g.AddColor("C");
  g.SetColor(2, c);
  Vertex keep[] = {1, 2, 3};
  InducedSubgraph sub = BuildInducedSubgraph(g, keep);
  EXPECT_EQ(sub.graph.order(), 3);
  EXPECT_EQ(sub.graph.EdgeCount(), 2);  // 1-2, 2-3; the 4-0 chord is cut
  EXPECT_TRUE(sub.graph.HasColor(sub.from_original[2], *sub.graph.FindColor("C")));
  EXPECT_EQ(sub.to_original[sub.from_original[3]], 3);
  EXPECT_EQ(sub.from_original[0], kNoVertex);
  EXPECT_TRUE(ValidateGraph(sub.graph));
}

TEST(InducedSubgraph, MapTupleRoundTrips) {
  Graph g = MakePath(6);
  Vertex keep[] = {2, 3, 4};
  InducedSubgraph sub = BuildInducedSubgraph(g, keep);
  Vertex tuple[] = {3, 2};
  std::vector<Vertex> mapped = sub.MapTuple(tuple);
  EXPECT_EQ(sub.to_original[mapped[0]], 3);
  EXPECT_EQ(sub.to_original[mapped[1]], 2);
}

TEST(NeighborhoodGraph, BallAroundTuple) {
  Graph g = MakePath(10);
  Vertex tuple[] = {2, 7};
  NeighborhoodGraph nbhd = BuildNeighborhoodGraph(g, tuple, 1);
  // Ball = {1,2,3} ∪ {6,7,8}.
  EXPECT_EQ(nbhd.induced.graph.order(), 6);
  EXPECT_EQ(nbhd.induced.graph.EdgeCount(), 4);
  EXPECT_EQ(nbhd.tuple.size(), 2u);
}

TEST(DisjointCopies, StructurePreserved) {
  Graph g = MakeCycle(4);
  ColorId c = g.AddColor("C");
  g.SetColor(1, c);
  Graph copies = DisjointCopies(g, 3);
  EXPECT_EQ(copies.order(), 12);
  EXPECT_EQ(copies.EdgeCount(), 12);
  EXPECT_TRUE(copies.HasEdge(4, 5));
  EXPECT_FALSE(copies.HasEdge(3, 4));
  EXPECT_TRUE(copies.HasColor(9, *copies.FindColor("C")));
  auto [components, count] = ConnectedComponents(copies);
  EXPECT_EQ(count, 3);
}

TEST(DisjointUnion, OffsetsSecondGraph) {
  Graph a = MakePath(3);
  Graph b = MakePath(2);
  Graph u = DisjointUnion(a, b);
  EXPECT_EQ(u.order(), 5);
  EXPECT_TRUE(u.HasEdge(3, 4));
  EXPECT_FALSE(u.HasEdge(2, 3));
}

TEST(ConnectedComponents, CountsComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  auto [components, count] = ConnectedComponents(g);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(components[0], components[1]);
  EXPECT_NE(components[1], components[2]);
}

// --- Generators --------------------------------------------------------------

TEST(Generators, PathCycleGridCounts) {
  EXPECT_EQ(MakePath(10).EdgeCount(), 9);
  EXPECT_EQ(MakeCycle(10).EdgeCount(), 10);
  Graph grid = MakeGrid(4, 3);
  EXPECT_EQ(grid.order(), 12);
  EXPECT_EQ(grid.EdgeCount(), 3 * 3 + 4 * 2);
  EXPECT_EQ(MakeComplete(6).EdgeCount(), 15);
  EXPECT_EQ(MakeCompleteBipartite(3, 4).EdgeCount(), 12);
  EXPECT_EQ(MakeStar(7).EdgeCount(), 7);
}

TEST(Generators, CaterpillarShape) {
  Graph cat = MakeCaterpillar(3, 2);
  EXPECT_EQ(cat.order(), 9);
  EXPECT_EQ(cat.EdgeCount(), 8);  // tree
  auto [components, count] = ConnectedComponents(cat);
  EXPECT_EQ(count, 1);
}

TEST(Generators, BinaryTreeIsTree) {
  Graph tree = MakeBinaryTree(4);
  EXPECT_EQ(tree.order(), 31);
  EXPECT_EQ(tree.EdgeCount(), 30);
}

TEST(Generators, RandomTreeIsSpanningTree) {
  Rng rng(11);
  for (int n : {1, 2, 3, 10, 50}) {
    Graph tree = MakeRandomTree(n, rng);
    EXPECT_EQ(tree.order(), n);
    EXPECT_EQ(tree.EdgeCount(), n - 1);
    auto [components, count] = ConnectedComponents(tree);
    EXPECT_EQ(count, 1) << "n=" << n;
    EXPECT_TRUE(ValidateGraph(tree));
  }
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(5);
  EXPECT_EQ(MakeErdosRenyi(10, 0.0, rng).EdgeCount(), 0);
  EXPECT_EQ(MakeErdosRenyi(10, 1.0, rng).EdgeCount(), 45);
}

TEST(Generators, BoundedDegreeRespectsBound) {
  Rng rng(13);
  Graph g = MakeBoundedDegree(50, 3, 70, rng);
  EXPECT_LE(g.MaxDegree(), 3);
  EXPECT_TRUE(ValidateGraph(g));
}

TEST(Generators, PreferentialAttachmentConnected) {
  Rng rng(17);
  Graph g = MakePreferentialAttachment(40, 2, rng);
  auto [components, count] = ConnectedComponents(g);
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(ValidateGraph(g));
}

TEST(Generators, SubdividedCompleteShape) {
  Graph g = MakeSubdividedComplete(5);
  // 5 branch + C(5,2)=10 subdivision vertices; 2 edges per clique edge.
  EXPECT_EQ(g.order(), 15);
  EXPECT_EQ(g.EdgeCount(), 20);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 4);
  for (Vertex v = 5; v < 15; ++v) EXPECT_EQ(g.Degree(v), 2);
  EXPECT_TRUE(ValidateGraph(g));
}

TEST(Generators, HypercubeShape) {
  Graph q3 = MakeHypercube(3);
  EXPECT_EQ(q3.order(), 8);
  EXPECT_EQ(q3.EdgeCount(), 12);
  EXPECT_EQ(q3.MaxDegree(), 3);
  auto [components, count] = ConnectedComponents(q3);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(MakeHypercube(0).order(), 1);
}

TEST(Generators, PeriodicColor) {
  Graph g = MakePath(10);
  ColorId c = AddPeriodicColor(g, "Even", 2, 0);
  EXPECT_EQ(g.VerticesWithColor(c).size(), 5u);
  EXPECT_TRUE(g.HasColor(0, c));
  EXPECT_FALSE(g.HasColor(1, c));
}

TEST(Generators, RandomColorsProbabilityExtremes) {
  Rng rng(23);
  Graph g = MakePath(20);
  AddRandomColors(g, {"Never"}, 0.0, rng);
  AddRandomColors(g, {"Always"}, 1.0, rng);
  EXPECT_TRUE(g.VerticesWithColor(*g.FindColor("Never")).empty());
  EXPECT_EQ(g.VerticesWithColor(*g.FindColor("Always")).size(), 20u);
}

// --- I/O ----------------------------------------------------------------------

TEST(GraphIo, TextRoundTrip) {
  Rng rng(31);
  Graph g = MakeRandomTree(12, rng);
  AddPeriodicColor(g, "Mod3", 3, 1);
  AddRandomColors(g, {"Noise"}, 0.4, rng);
  std::string text = ToText(g);
  StatusOr<Graph> parsed = ParseGraph(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(ToText(*parsed), text);
}

TEST(GraphIo, RejectsMalformedInput) {
  for (const char* text :
       {"edge 0 1", "graph 2\nedge 0 2", "graph 2\nedge 0 0", "graph -1", "",
        "graph 1\nbogus 3"}) {
    StatusOr<Graph> parsed = ParseGraph(text);
    EXPECT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

// Every parse error names the offending 1-based line and quotes enough of
// the line to find it in the input.
TEST(GraphIo, ParseErrorsCarryLineNumbers) {
  const auto error = [](std::string_view text) {
    StatusOr<Graph> parsed = ParseGraph(text);
    EXPECT_FALSE(parsed.ok()) << text;
    return parsed.ok() ? std::string() : parsed.status().message();
  };
  std::string message = error("edge 0 1");
  EXPECT_TRUE(message.starts_with("line 1: ")) << message;

  message = error("graph 2\nedge 0 2");
  EXPECT_TRUE(message.starts_with("line 2: ")) << message;
  EXPECT_NE(message.find("edge 0 2"), std::string::npos) << message;

  message = error("graph 1\ngraph 1");
  EXPECT_TRUE(message.starts_with("line 2: ")) << message;

  // Blank and comment lines still advance the counter.
  message = error("# header\n\ngraph 2\n\nbogus 3");
  EXPECT_TRUE(message.starts_with("line 5: ")) << message;
  EXPECT_NE(message.find("bogus"), std::string::npos) << message;

  message = error("graph 2\ncolor Red two");
  EXPECT_TRUE(message.starts_with("line 2: ")) << message;

  // "empty input" has no line to blame and carries no prefix.
  EXPECT_EQ(error(""), "empty input");
}

TEST(GraphIo, DotOutputMentionsVerticesAndEdges) {
  Graph g = MakePath(3);
  ColorId c = g.AddColor("Red");
  g.SetColor(0, c);
  std::string dot = ToDot(g, "demo");
  EXPECT_NE(dot.find("graph demo"), std::string::npos);
  EXPECT_NE(dot.find("v0 [label=\"0:Red\"]"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
}

}  // namespace
}  // namespace folearn
