// The splitter game in action (paper §2, Fact 4): plays the (r, s)-game on
// several graph families and strategies, printing the rounds Splitter needs.
// Nowhere dense families (paths, trees, grids) stay flat in n; the clique
// control grows linearly — the game *is* the dividing line the paper's
// Theorem 2 stands on.
//
//   $ ./splitter_game_demo

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "nd/splitter_game.h"
#include "util/rng.h"
#include "util/table.h"

using namespace folearn;

int main() {
  Rng rng(31);
  const int radius = 2;
  const int max_rounds = 40;

  auto tree_splitter = MakeTreeSplitter();
  auto degree_splitter = MakeGreedyDegreeSplitter();
  auto connector = MakeGreedyBallConnector();
  Rng connector_rng(17);
  auto random_connector = MakeRandomConnector(connector_rng);
  std::vector<ConnectorStrategy*> connectors = {connector.get(),
                                                random_connector.get()};

  struct Family {
    const char* name;
    Graph graph;
    SplitterStrategy* splitter;
  };
  std::vector<Family> families;
  families.push_back({"path n=100", MakePath(100), tree_splitter.get()});
  families.push_back({"path n=400", MakePath(400), tree_splitter.get()});
  families.push_back(
      {"random tree n=100", MakeRandomTree(100, rng), tree_splitter.get()});
  families.push_back(
      {"random tree n=400", MakeRandomTree(400, rng), tree_splitter.get()});
  families.push_back({"caterpillar 50×3", MakeCaterpillar(50, 3),
                      tree_splitter.get()});
  families.push_back({"grid 10×10", MakeGrid(10, 10), degree_splitter.get()});
  families.push_back({"grid 20×20", MakeGrid(20, 20), degree_splitter.get()});
  families.push_back({"bounded-deg n=200",
                      MakeBoundedDegree(200, 4, 300, rng),
                      degree_splitter.get()});
  families.push_back({"clique n=8", MakeComplete(8), degree_splitter.get()});
  families.push_back({"clique n=16", MakeComplete(16),
                      degree_splitter.get()});

  std::printf("(r = %d)-splitter game, worst connector of %zu\n\n", radius,
              connectors.size());
  Table table({"family", "order", "strategy", "rounds"});
  for (Family& family : families) {
    int rounds = MeasureSplitterRounds(family.graph, radius, max_rounds,
                                       *family.splitter, connectors);
    std::string cell = rounds > max_rounds ? ">" : "";
    cell += std::to_string(std::min(rounds, max_rounds));
    table.AddRow({family.name, std::to_string(family.graph.order()),
                  family.splitter->name(), std::move(cell)});
  }
  table.Print();
  std::printf("\nNowhere dense families finish in O(1) rounds; cliques need "
              "n rounds (one vertex per round).\n");
  return 0;
}
