// Query answering over an encoded database: the FO-MC substrate used the
// way a database system would — compute the FULL answer relation of a
// query in one batched EvaluateOnTuples call (one plan, one VM evaluator,
// every candidate tuple), cross-check it against per-tuple probing (one
// compile per tuple), and then close the learning loop: learn the query
// back from its own answer set and verify the learned model answers
// identically.
//
//   $ ./query_answering

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/encoding.h"
#include "fo/printer.h"
#include "learn/erm.h"
#include "mc/evaluator.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace folearn;

int main() {
  Rng rng(808);
  // A small social database: Follows(a, b), Verified(x).
  Schema schema;
  schema.AddRelation("Follows", 2);
  schema.AddRelation("Verified", 1);
  const int people = 60;
  Database db(schema, people);
  for (int i = 0; i < people; i += 5) db.AddTuple("Verified", {i});
  for (int i = 0; i < 150; ++i) {
    int a = static_cast<int>(rng.UniformIndex(people));
    int b = static_cast<int>(rng.UniformIndex(people));
    if (a != b) db.AddTuple("Follows", {a, b});
  }
  EncodedDatabase encoded = EncodeDatabase(db);
  std::printf("database      : %d people, %lld tuples → graph n=%d m=%lld\n",
              people, static_cast<long long>(db.TotalTuples()),
              encoded.graph.order(),
              static_cast<long long>(encoded.graph.EdgeCount()));

  // Query: "x1 follows a verified account".
  FormulaRef query = ExistsElem(
      "v", Formula::And(RelationAtom("Verified", {"v"}),
                        RelationAtom("Follows", {"x1", "v"})));
  std::printf("query         : %s\n", DescribeFormula(query).c_str());

  // Every element vertex is a candidate answer.
  std::vector<std::vector<Vertex>> candidates;
  for (int e = 0; e < people; ++e) candidates.push_back({encoded.VertexOf(e)});
  const std::vector<std::string> vars = {"x1"};
  const auto answer_set = [&](const FormulaRef& formula) {
    std::vector<bool> verdicts =
        EvaluateOnTuples(encoded.graph, formula, vars, candidates);
    std::set<Vertex> answers;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (verdicts[i]) answers.insert(candidates[i][0]);
    }
    return answers;
  };

  // Full answer set in one batched VM call.
  Stopwatch batch_watch;
  std::set<Vertex> answers = answer_set(query);
  double batch_ms = batch_watch.ElapsedMillis();

  // Cross-check with per-element probing.
  Stopwatch probe_watch;
  int probe_answers = 0;
  for (int e = 0; e < people; ++e) {
    Vertex tuple[] = {encoded.VertexOf(e)};
    if (EvaluateQuery(encoded.graph, query, vars, tuple)) {
      ++probe_answers;
      if (answers.count(encoded.VertexOf(e)) == 0) {
        std::printf("MISMATCH at element %d\n", e);
        return 1;
      }
    }
  }
  double probe_ms = probe_watch.ElapsedMillis();
  if (probe_answers != static_cast<int>(answers.size())) {
    std::printf("MISMATCH: %d probed answers vs %zu batched\n",
                probe_answers, answers.size());
    return 1;
  }
  std::printf("answers       : %d of %d people (batched %.1f ms, "
              "per-tuple probing %.1f ms)\n",
              probe_answers, people, batch_ms, probe_ms);

  // Close the loop on a locally-definable query: learn "x follows someone"
  // back from its own answer set. (The verified-follow query above reaches
  // graph distance 6 in the encoding — answerable, but beyond the small
  // type radii that keep learning cheap; the locality budget is a real
  // modelling decision, not a free parameter.)
  FormulaRef local_query = ExistsElem("b", RelationAtom("Follows",
                                                        {"x1", "b"}));
  std::set<Vertex> follows = answer_set(local_query);
  TrainingSet examples;
  for (int e = 0; e < people; ++e) {
    Vertex v = encoded.VertexOf(e);
    examples.push_back({{v}, follows.count(v) > 0});
  }
  ErmResult learned = TypeMajorityErm(encoded.graph, examples, {}, {2, 2});
  std::printf("learned       : 'follows someone' with training error %.4f "
              "(%lld local types)\n",
              learned.training_error,
              static_cast<long long>(learned.distinct_types_seen));
  int agreements = 0;
  for (int e = 0; e < people; ++e) {
    Vertex tuple[] = {encoded.VertexOf(e)};
    bool learned_label = learned.hypothesis.Classify(encoded.graph, tuple);
    if (learned_label == (follows.count(encoded.VertexOf(e)) > 0)) {
      ++agreements;
    }
  }
  std::printf("agreement     : %d / %d — the learned model answers the "
              "query it was trained on\n",
              agreements, people);
  return learned.training_error == 0.0 ? 0 : 1;
}
