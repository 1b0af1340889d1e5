#ifndef FOLEARN_GRAPH_IO_H_
#define FOLEARN_GRAPH_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "util/status.h"

namespace folearn {

// Serialises a graph to a line-oriented text format:
//
//   graph <order>
//   colors <name...>              # optional, one line
//   color <name> <vertex...>      # one line per non-empty colour
//   edge <u> <v>                  # one line per edge, u < v
//
// Deterministic (sorted) so it can be diffed in tests.
std::string ToText(const Graph& graph);

// Parses the format produced by ToText. Returns std::nullopt on malformed
// input (and fills *error if non-null). Error messages are prefixed with
// the offending 1-based line number ("line 3: ..."); the "empty input"
// error has no line to point at and carries no prefix.
std::optional<Graph> FromText(std::string_view text,
                              std::string* error = nullptr);

// Status-typed variants for callers that need recoverable errors (the CLI,
// checkpoint loading): malformed text is kInvalidArgument with the FromText
// diagnostic, never a crash.
StatusOr<Graph> ParseGraph(std::string_view text);

// Graphviz DOT rendering (undirected), colours emitted as vertex labels.
std::string ToDot(const Graph& graph, std::string_view name = "G");

}  // namespace folearn

#endif  // FOLEARN_GRAPH_IO_H_
