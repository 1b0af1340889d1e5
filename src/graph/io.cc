#include "graph/io.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "util/strings.h"

namespace folearn {

std::string ToText(const Graph& graph) {
  std::ostringstream out;
  out << "graph " << graph.order() << "\n";
  if (graph.vocabulary().size() > 0) {
    out << "colors";
    for (const std::string& name : graph.vocabulary().names()) {
      out << ' ' << name;
    }
    out << "\n";
  }
  for (ColorId c = 0; c < graph.vocabulary().size(); ++c) {
    std::vector<Vertex> members = graph.VerticesWithColor(c);
    if (members.empty()) continue;
    out << "color " << graph.vocabulary().Name(c);
    for (Vertex v : members) out << ' ' << v;
    out << "\n";
  }
  for (Vertex u = 0; u < graph.order(); ++u) {
    for (Vertex v : graph.Neighbors(u)) {
      if (v > u) out << "edge " << u << ' ' << v << "\n";
    }
  }
  return out.str();
}

namespace {
// A 32-bit decimal integer: a vertex id beyond that range is malformed
// input, not a wrapped (or UB) id.
bool ParseInt(std::string_view token, int* out) {
  int64_t value = 0;
  if (!ParseInt64(token, &value) ||
      value < std::numeric_limits<int32_t>::min() ||
      value > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}
}  // namespace

std::optional<Graph> FromText(std::string_view text, std::string* error) {
  std::optional<Graph> graph;
  int line_number = 0;  // 1-based; prefixed to every parse error
  auto fail = [&](const std::string& message) -> std::optional<Graph> {
    Fail(error, "line " + std::to_string(line_number) + ": " + message);
    return std::nullopt;
  };
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string line(StripWhitespace(raw_line));
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> tokens = Split(line, ' ');
    tokens.erase(std::remove(tokens.begin(), tokens.end(), std::string()),
                 tokens.end());
    const std::string& keyword = tokens[0];
    if (keyword == "graph") {
      if (graph.has_value()) return fail("duplicate 'graph' line");
      int order = 0;
      if (tokens.size() != 2 || !ParseInt(tokens[1], &order) || order < 0) {
        return fail("malformed 'graph' line: " + line);
      }
      if (static_cast<int64_t>(order) > kMaxGraphOrder) {
        return fail("order exceeds the 32-bit id limit");
      }
      graph.emplace(order);
    } else if (!graph.has_value()) {
      return fail("'graph <order>' must come first");
    } else if (keyword == "colors") {
      for (size_t i = 1; i < tokens.size(); ++i) {
        if (graph->FindColor(tokens[i]).has_value()) {
          return fail("duplicate colour: " + tokens[i]);
        }
        graph->AddColor(tokens[i]);
      }
    } else if (keyword == "color") {
      if (tokens.size() < 2) return fail("malformed 'color' line: " + line);
      std::optional<ColorId> id = graph->FindColor(tokens[1]);
      if (!id.has_value()) id = graph->AddColor(tokens[1]);
      for (size_t i = 2; i < tokens.size(); ++i) {
        int v = 0;
        if (!ParseInt(tokens[i], &v) || !graph->IsValidVertex(v)) {
          return fail("bad vertex in 'color' line: " + line);
        }
        graph->SetColor(v, *id);
      }
    } else if (keyword == "edge") {
      int u = 0;
      int v = 0;
      if (tokens.size() != 3 || !ParseInt(tokens[1], &u) ||
          !ParseInt(tokens[2], &v) || !graph->IsValidVertex(u) ||
          !graph->IsValidVertex(v) || u == v) {
        return fail("malformed 'edge' line: " + line);
      }
      graph->AddEdge(u, v);
    } else {
      return fail("unknown keyword: " + keyword);
    }
  }
  if (!graph.has_value()) {
    Fail(error, "empty input");
  } else {
    // Loaders hand out finalized (CSR-packed) graphs.
    graph->Finalize();
  }
  return graph;
}

StatusOr<Graph> ParseGraph(std::string_view text) {
  std::string error;
  std::optional<Graph> graph = FromText(text, &error);
  if (!graph.has_value()) return InvalidArgumentError(error);
  return *std::move(graph);
}

std::string ToDot(const Graph& graph, std::string_view name) {
  std::ostringstream out;
  out << "graph " << name << " {\n";
  for (Vertex v = 0; v < graph.order(); ++v) {
    std::vector<std::string> colours;
    for (ColorId c = 0; c < graph.vocabulary().size(); ++c) {
      if (graph.HasColor(v, c)) colours.push_back(graph.vocabulary().Name(c));
    }
    out << "  v" << v << " [label=\"" << v;
    if (!colours.empty()) out << ":" << Join(colours, ",");
    out << "\"];\n";
  }
  for (Vertex u = 0; u < graph.order(); ++u) {
    for (Vertex v : graph.Neighbors(u)) {
      if (v > u) out << "  v" << u << " -- v" << v << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace folearn
