#include "workload.h"

#include <cstdio>
#include <numeric>
#include <utility>

#include "graph/generators.h"
#include "graph/io.h"
#include "learn/model_io.h"
#include "util/rng.h"

namespace perfbench {

using folearn::Graph;
using folearn::LabeledExample;
using folearn::Message;
using folearn::Rng;
using folearn::TrainingSet;
using folearn::Vertex;

namespace {

// Per-workload sizes. Every request costs milliseconds or more, so a run
// of a few seconds holds hundreds of them and medians settle.
struct Shape {
  int n;               // tree order
  int colours;         // 1 = Red, 2 = Red + Blue
  int radius;
  int ell;
  int models;          // served models per session (evaluate-*)
  int learn_examples;  // examples per learn (0 = every vertex)
  int batch;           // examples per evaluate
  int batches;         // batches per session, cycled; together they
                       // cover the vertices evenly
};

Shape ShapeOf(Kind kind) {
  switch (kind) {
    case Kind::kEvaluateBulk:
      return {400, 1, 2, 0, 4, 0, 16, 25};
    case Kind::kEvaluateText:
      return {120, 2, 1, 1, 8, 24, 4, 30};
    case Kind::kLearnShared:
      return {200, 1, 1, 1, 0, 32, 200, 8};
  }
  return {};
}

// The workload's tree and its colouring: a fixed pattern per size, the
// same for every seed. Every seed thus poses the same problem; it draws
// the batches, their labels and learn-shared's writer labellings. With a
// fresh random tree per seed the VM's work per example moved by about ±15%
// from seed to seed, and with a fresh renumbering of one tree by about ±7%
// (scan order), which on top of the host's own noise drowned the
// run-to-run comparison the benchmark exists for.
Graph PatternTree(int n, int colours) {
  Rng pattern(0x7e3e0000u + static_cast<uint64_t>(n));
  Graph graph = folearn::MakeRandomTree(n, pattern);
  const char* names[] = {"Red", "Blue"};
  for (int c = 0; c < colours; ++c) {
    folearn::ColorId colour = graph.AddColor(names[c]);
    std::vector<Vertex> order(n);
    std::iota(order.begin(), order.end(), 0);
    pattern.Shuffle(order);
    for (int i = 0; i < n * 3 / 10; ++i) graph.SetColor(order[i], colour);
  }
  graph.Finalize();
  return graph;
}

std::vector<Vertex> DistinctVertices(int n, int count, Rng& rng) {
  std::vector<Vertex> all(n);
  std::iota(all.begin(), all.end(), 0);
  rng.Shuffle(all);
  all.resize(count);
  return all;
}

// evaluate-bulk labels follow the colour with 10% noise, so the learned
// model accepts about half of a saturated type set and its size, hence the
// VM cost per example, barely moves with the seed. The other workloads
// use coin-flip labels: distinct models per learn.
bool Label(const Graph& graph, Vertex v, bool colour_rule, Rng& rng) {
  if (!colour_rule) return rng.Bernoulli(0.5);
  const bool red = graph.HasColor(v, 0);
  return red != rng.Bernoulli(0.1);
}

TrainingSet Labelled(const Graph& graph, const std::vector<Vertex>& tuples,
                     bool colour_rule, Rng& rng) {
  TrainingSet data;
  data.reserve(tuples.size());
  for (Vertex v : tuples) {
    data.push_back(LabeledExample{{v}, Label(graph, v, colour_rule, rng)});
  }
  return data;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  return x ^ (x >> 29);
}

}  // namespace

std::optional<Kind> ParseKind(const std::string& name) {
  if (name == "evaluate-bulk") return Kind::kEvaluateBulk;
  if (name == "evaluate-text") return Kind::kEvaluateText;
  if (name == "learn-shared") return Kind::kLearnShared;
  return std::nullopt;
}

Workload MakeWorkload(Kind kind, uint64_t seed) {
  const Shape shape = ShapeOf(kind);
  Rng rng(Mix(seed, static_cast<uint64_t>(kind)));
  Workload workload;
  workload.kind = kind;
  workload.seed = seed;
  workload.graph = PatternTree(shape.n, shape.colours);
  workload.graph_text = folearn::ToText(workload.graph);
  workload.graph_as_fog = kind == Kind::kEvaluateBulk;
  workload.radius = shape.radius;
  workload.ell = shape.ell;
  workload.ship_model_text = kind == Kind::kEvaluateText;
  const bool colour_rule = kind == Kind::kEvaluateBulk;

  const int session_count = kind == Kind::kLearnShared ? 1 : 2;
  workload.sessions.resize(session_count);
  for (size_t s = 0; s < workload.sessions.size(); ++s) {
    SessionInputs& session = workload.sessions[s];
    for (int m = 0; m < shape.models; ++m) {
      // The served models are fixed too. Coin-flip models drawn per seed
      // varied in size by about ±12%, and parse and VM cost with it.
      Rng pattern(Mix(0x5e7e0000u + static_cast<uint64_t>(shape.n),
                      s * 64 + static_cast<uint64_t>(m)));
      std::vector<Vertex> examples(shape.n);
      std::iota(examples.begin(), examples.end(), 0);
      if (shape.learn_examples != 0) {
        pattern.Shuffle(examples);
        examples.resize(shape.learn_examples);
      }
      LearnInput learn;
      learn.data = Labelled(workload.graph, examples, colour_rule, pattern);
      if (workload.ell > 0) {
        // One example twice, with both labels: no hypothesis reaches zero
        // training error, so the sweep never stops early and every learn
        // tries every candidate.
        learn.data.push_back(
            LabeledExample{learn.data[0].tuple, !learn.data[0].label});
      }
      learn.text = folearn::TrainingSetToText(learn.data);
      session.setup_learns.push_back(std::move(learn));
    }
    // Consecutive slices of one shuffle, wrapping around: every vertex is
    // evaluated about equally often whatever the seed.
    const std::vector<Vertex> cover = DistinctVertices(shape.n, shape.n, rng);
    for (int b = 0; b < shape.batches; ++b) {
      Batch batch;
      std::vector<Vertex> slice;
      for (int j = 0; j < shape.batch; ++j) {
        slice.push_back(cover[(b * shape.batch + j) % shape.n]);
      }
      batch.data = Labelled(workload.graph, slice, colour_rule, rng);
      batch.text = folearn::TrainingSetToText(batch.data);
      session.batches.push_back(std::move(batch));
    }
    // Set-up primes each model with one example: enough to compile its
    // plan and bind its evaluator, without timing VM work as set-up.
    Batch prime;
    prime.data = Labelled(workload.graph, {cover[0]}, colour_rule, rng);
    prime.text = folearn::TrainingSetToText(prime.data);
    session.prime_batch = static_cast<int>(session.batches.size());
    session.batches.push_back(std::move(prime));
  }
  if (kind == Kind::kLearnShared) {
    workload.writer_tuples =
        DistinctVertices(shape.n, shape.learn_examples, rng);
    // The cap keeps the journal at a steady size. It must stay well above
    // the number of learns the reader can wait behind: the session mutex
    // is not fair, so the writer's next learn can take it before the
    // woken reader does, several times running. A reader that waits out
    // more learns than the cap finds its model compacted away (unknown
    // model-id). With a cap of 8, runs on a fast host failed a few of
    // about 700 reads, while the reader's p90 wait had reached two learns.
    workload.max_session_models = 32;
    workload.dedup_window = 8;
    workload.sessions[0].setup_learns.push_back(WriterLearn(workload, 0));
  }
  return workload;
}

LearnInput WriterLearn(const Workload& workload, int64_t index) {
  Rng rng(Mix(workload.seed ^ 0x1ea4u, static_cast<uint64_t>(index)));
  LearnInput learn;
  learn.data =
      Labelled(workload.graph, workload.writer_tuples, false, rng);
  learn.text = folearn::TrainingSetToText(learn.data);
  char id[40];
  std::snprintf(id, sizeof(id), "w%lld-%016llx",
                static_cast<long long>(index),
                static_cast<unsigned long long>(
                    rng.UniformInt(0, INT64_MAX)));
  learn.request_id = id;
  return learn;
}

Message BuildRequest(const Workload& workload, const RequestSpec& spec,
                     uint64_t session_id, const std::string& fog_path) {
  Message request;
  switch (spec.op) {
    case Op::kLoad:
      request.Set("op", "load-graph");
      if (workload.graph_as_fog) {
        request.Set("graph-file", fog_path);
      } else {
        request.Set("graph", workload.graph_text);
      }
      return request;
    case Op::kLearn: {
      const SessionInputs& session = workload.sessions[spec.session];
      const LearnInput& learn =
          spec.writer ? WriterLearn(workload, spec.learn)
                      : session.setup_learns[spec.learn];
      request.Set("op", "learn");
      request.Set("session", std::to_string(session_id));
      request.Set("data", learn.text);
      request.Set("rank", std::to_string(workload.rank));
      request.Set("radius", std::to_string(workload.radius));
      request.Set("ell", std::to_string(workload.ell));
      if (!learn.request_id.empty()) {
        request.Set("request-id", learn.request_id);
      }
      return request;
    }
    case Op::kEvaluate: {
      const SessionInputs& session = workload.sessions[spec.session];
      request.Set("op", "evaluate");
      request.Set("session", std::to_string(session_id));
      if (workload.ship_model_text) {
        request.Set("model", session.model_texts[spec.model]);
      } else {
        request.Set("model-id", std::to_string(spec.model_id));
      }
      request.Set("data", session.batches[spec.batch].text);
      return request;
    }
  }
  return request;
}

int64_t RequestExamples(const Workload& workload, const RequestSpec& spec) {
  const SessionInputs& session = workload.sessions[spec.session];
  switch (spec.op) {
    case Op::kLoad:
      return 0;
    case Op::kLearn:
      return spec.writer ? static_cast<int64_t>(workload.writer_tuples.size())
                         : static_cast<int64_t>(
                               session.setup_learns[spec.learn].data.size());
    case Op::kEvaluate:
      return static_cast<int64_t>(session.batches[spec.batch].data.size());
  }
  return 0;
}

std::string FormatRate(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

}  // namespace perfbench
