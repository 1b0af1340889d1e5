// E7 — the splitter game as a nowhere-density meter (Fact 4): on nowhere
// dense families the rounds Splitter needs are bounded by s(r) independent
// of n; on the somewhere-dense controls (cliques) they grow with n.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "graph/generators.h"
#include "nd/splitter_game.h"
#include "util/rng.h"
#include "util/table.h"

using namespace folearn;

int main(int argc, char** argv) {
  BenchJsonWriter json(argc, argv);
  BenchTotalTimer bench_total(json, "splitter_game");
  std::printf("E7: (r, s)-splitter game profile — rounds needed vs family, "
              "n, and r\n\n");
  Rng rng(860);
  auto tree_splitter = MakeTreeSplitter();
  auto degree_splitter = MakeGreedyDegreeSplitter();
  auto greedy_connector = MakeGreedyBallConnector();
  Rng connector_rng(861);
  auto random_connector = MakeRandomConnector(connector_rng);
  std::vector<ConnectorStrategy*> connectors = {greedy_connector.get(),
                                                random_connector.get()};
  const int max_rounds = 64;

  struct Row {
    const char* family;
    Graph graph;
    SplitterStrategy* splitter;
  };
  std::vector<Row> rows;
  for (int n : {64, 256, 1024}) {
    rows.push_back({"path", MakePath(n), tree_splitter.get()});
  }
  for (int n : {64, 256, 1024}) {
    rows.push_back({"random tree", MakeRandomTree(n, rng),
                    tree_splitter.get()});
  }
  for (int side : {8, 16, 32}) {
    rows.push_back({"grid", MakeGrid(side, side), degree_splitter.get()});
  }
  for (int n : {64, 256}) {
    rows.push_back({"bounded-deg(4)", MakeBoundedDegree(n, 4, 3 * n / 2, rng),
                    degree_splitter.get()});
  }
  for (int n : {6, 12, 24}) {
    rows.push_back({"clique (control)", MakeComplete(n),
                    degree_splitter.get()});
  }
  for (int n : {6, 10, 14}) {
    // 2-degenerate yet somewhere dense: dense behaviour appears at r = 3.
    rows.push_back({"subdivided clique", MakeSubdividedComplete(n),
                    degree_splitter.get()});
  }

  Table table({"family", "n", "r=1", "r=2", "r=3"});
  for (Row& row : rows) {
    std::vector<std::string> cells = {row.family,
                                      std::to_string(row.graph.order())};
    for (int r : {1, 2, 3}) {
      int rounds = MeasureSplitterRounds(row.graph, r, max_rounds,
                                         *row.splitter, connectors);
      std::string cell = rounds > max_rounds ? ">" : "";
      cell += std::to_string(std::min(rounds, max_rounds));
      cells.push_back(std::move(cell));
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
  std::printf(
      "\nNowhere dense rows: rounds bounded by s(r), flat as n grows 16×. "
      "Clique rows:\nrounds = n exactly. Subdivided cliques — 2-DEGENERATE "
      "graphs — stay easy at r ≤ 2\nbut grow linearly at r = 3: somewhere "
      "dense despite bounded degeneracy, the\nsubtlety that makes nowhere "
      "denseness (not degeneracy) Theorem 2's boundary.\n");
  return 0;
}
