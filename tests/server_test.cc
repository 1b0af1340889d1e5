// Tests for the folearnd server stack: protocol round trips, warm-state
// request handling against the direct library calls, multi-tenant
// concurrency determinism, admission control (shedding), deadline
// degradation, graceful shutdown, durability (journaled sessions and
// model handles surviving a restart), request-id dedup, idle-TTL
// eviction with lazy re-warm, client-disconnect robustness, and the
// retrying client. Runs the server in-process on a unique unix socket
// per fixture; the TSan CI job runs this whole file under
// ThreadSanitizer.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "graph/fog.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "mc/plan_cache.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/rng.h"

namespace folearn {
namespace {

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/folearn_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A small coloured graph and a training set labelled "is Red", the same
// shape as the CLI pipeline test.
struct TestProblem {
  Graph graph = Graph(0);
  TrainingSet data;
  std::string graph_text;
  std::string data_text;
};

TestProblem MakeProblem(int n, int seed) {
  Rng rng(seed);
  TestProblem problem;
  problem.graph = MakeRandomTree(n, rng);
  ColorId red = problem.graph.AddColor("Red");
  for (Vertex v = 0; v < n; v += 3) problem.graph.SetColor(v, red);
  for (Vertex v = 0; v < n; ++v) {
    problem.data.push_back({{v}, problem.graph.HasColor(v, red)});
  }
  problem.graph_text = ToText(problem.graph);
  problem.data_text = TrainingSetToText(problem.data);
  return problem;
}

// A throwaway state directory for durability tests, removed on teardown.
std::string MakeStateDir() {
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/folearn_server_test_state_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  return dir;
}

void RemoveTreeBestEffort(const std::string& dir) {
  if (dir.empty() || dir.rfind("/tmp/", 0) != 0) return;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.socket_path = UniqueSocketPath();
    options_ = options;
    server_ = std::make_unique<Server>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  // Stops the daemon and brings up a fresh Server instance on the *same*
  // socket path and state dir — the in-process analogue of a daemon
  // restart.
  void RestartServer() {
    server_->Shutdown();
    serve_thread_.join();
    server_ = std::make_unique<Server>(ServerOptions(options_));
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      if (serve_thread_.joinable()) serve_thread_.join();
    }
    RemoveTreeBestEffort(options_.state_dir);
  }

  Client MustConnect() {
    StatusOr<Client> client = Client::Connect(server_->socket_path());
    EXPECT_TRUE(client.ok()) << client.status().message();
    return *std::move(client);
  }

  // A raw connected socket, bypassing Client, for torn-frame tests.
  int RawConnect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server_->socket_path().c_str(),
                server_->socket_path().size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
};

TEST(ProtocolTest, MessageEncodeDecodeRoundTrip) {
  Message message;
  message.Set("op", "learn");
  message.Set("data", std::string("binary\0bytes\xff", 13));
  message.Set("empty", "");
  StatusOr<Message> decoded = DecodeMessage(EncodeMessage(message));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->fields.size(), 3u);
  EXPECT_EQ(decoded->Get("op"), "learn");
  EXPECT_EQ(decoded->Get("data"), std::string("binary\0bytes\xff", 13));
  EXPECT_TRUE(decoded->Has("empty"));
}

TEST(ProtocolTest, DecodeRejectsTruncatedPayloads) {
  Message message;
  message.Set("key", "value");
  std::string payload = EncodeMessage(message);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    StatusOr<Message> decoded = DecodeMessage(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  std::string trailing = payload + "x";
  EXPECT_FALSE(DecodeMessage(trailing).ok());
}

TEST(PlanCacheTest, HitsAndBudgetInvariant) {
  PlanCache cache(/*max_bytes=*/16 * 1024);
  FormulaRef sentence = MustParseFormula("exists x. exists y. E(x, y)");
  EvalOptions options;
  CachedPlan first = cache.GetOrCompile(sentence, {}, options);
  CachedPlan second = cache.GetOrCompile(sentence, {}, options);
  EXPECT_EQ(first.plan.get(), second.plan.get());
  EXPECT_EQ(first.bytecode.get(), second.bytecode.get());
  EXPECT_NE(first.bytecode, nullptr);  // default engine is the VM
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  // Distinct formulas fill the budget; the invariant holds throughout.
  for (int i = 0; i < 200; ++i) {
    std::string text = "exists x. exists y" + std::to_string(i) +
                       ". E(x, y" + std::to_string(i) + ")";
    cache.GetOrCompile(MustParseFormula(text), {}, options);
    ASSERT_LE(cache.bytes(), cache.max_bytes());
  }
  EXPECT_GT(cache.evictions(), 0);
}

TEST(PlanCacheTest, EngineKeyedEntriesDoNotCollide) {
  PlanCache cache;
  FormulaRef sentence = MustParseFormula("exists x. E(x, x)");
  EvalOptions vm;
  vm.engine = EvalEngine::kVm;
  EvalOptions tree;
  tree.engine = EvalEngine::kCompiled;
  CachedPlan vm_entry = cache.GetOrCompile(sentence, {}, vm);
  CachedPlan tree_entry = cache.GetOrCompile(sentence, {}, tree);
  // Same formula, different engines: two distinct entries, the VM one
  // carrying bytecode, the tree one not — neither evicts or shadows the
  // other, and each is billed its own bytes.
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_NE(vm_entry.plan.get(), tree_entry.plan.get());
  EXPECT_NE(vm_entry.bytecode, nullptr);
  EXPECT_EQ(tree_entry.bytecode, nullptr);
  // An options fingerprint change is a distinct entry too.
  EvalOptions vm_mcf = vm;
  vm_mcf.missing_color_is_false = true;
  cache.GetOrCompile(sentence, {}, vm_mcf);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.entries(), 3);
  // Repeats of every variant hit.
  cache.GetOrCompile(sentence, {}, vm);
  cache.GetOrCompile(sentence, {}, tree);
  cache.GetOrCompile(sentence, {}, vm_mcf);
  EXPECT_EQ(cache.hits(), 3);
}

TEST(PlanCacheTest, OversizePlanServedUncached) {
  PlanCache cache(/*max_bytes=*/1);
  FormulaRef sentence = MustParseFormula("exists x. E(x, x)");
  CachedPlan entry = cache.GetOrCompile(sentence, {}, EvalOptions{});
  ASSERT_NE(entry.plan, nullptr);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.oversize_misses(), 1);
}

// A parse callback for GetOrCompileSource that counts its calls.
PlanCache::SourceParser CountingParser(std::string text, int* calls) {
  return [text = std::move(text), calls]() -> StatusOr<FormulaRef> {
    ++*calls;
    return MustParseFormula(text);
  };
}

TEST(PlanCacheTest, SourceParseRunsOncePerKey) {
  PlanCache cache;
  const std::string source =
      ToString(MustParseFormula("exists y. (E(x1, y) & Red(y))"));
  const std::vector<std::string> frame = {"x1"};
  int calls = 0;
  StatusOr<CachedPlan> first = cache.GetOrCompileSource(
      source, frame, EvalOptions{}, CountingParser(source, &calls));
  ASSERT_TRUE(first.ok());
  for (int rep = 0; rep < 3; ++rep) {
    StatusOr<CachedPlan> again = cache.GetOrCompileSource(
        source, frame, EvalOptions{}, CountingParser(source, &calls));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->plan.get(), first->plan.get());
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 3);
  // A canonical text and its parsed formula share one entry.
  CachedPlan by_formula =
      cache.GetOrCompile(MustParseFormula(source), frame, EvalOptions{});
  EXPECT_EQ(by_formula.plan.get(), first->plan.get());
  EXPECT_EQ(cache.entries(), 1);
}

TEST(PlanCacheTest, FailedSourceParseInsertsNothing) {
  PlanCache cache;
  int calls = 0;
  auto failing = [&calls]() -> StatusOr<FormulaRef> {
    ++calls;
    return InvalidArgumentError("formula parse error: expected ')'");
  };
  for (int rep = 0; rep < 2; ++rep) {
    StatusOr<CachedPlan> entry =
        cache.GetOrCompileSource("Red(x1", {}, EvalOptions{}, failing);
    ASSERT_FALSE(entry.ok());
    EXPECT_EQ(entry.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(entry.status().message(), "formula parse error: expected ')'");
  }
  // Nothing was cached, so the second request parsed (and failed) again.
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(PlanCacheTest, SourceKeyCoversFrameAndEngine) {
  PlanCache cache;
  const std::string source = "E(x1, x1)";
  int calls = 0;
  const std::vector<std::string> narrow = {"x1"};
  const std::vector<std::string> wide = {"x1", "y1"};
  EvalOptions vm;
  vm.engine = EvalEngine::kVm;
  EvalOptions tree;
  tree.engine = EvalEngine::kCompiled;
  ASSERT_TRUE(cache.GetOrCompileSource(source, narrow, vm,
                                       CountingParser(source, &calls))
                  .ok());
  ASSERT_TRUE(cache.GetOrCompileSource(source, wide, vm,
                                       CountingParser(source, &calls))
                  .ok());
  ASSERT_TRUE(cache.GetOrCompileSource(source, narrow, tree,
                                       CountingParser(source, &calls))
                  .ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(cache.entries(), 3);
  EXPECT_EQ(cache.hits(), 0);
  // A source that embeds the key's separators cannot impersonate another
  // source in a different frame: "E(x1, x1)" + US + "x1" in the empty
  // frame must not hit "E(x1, x1)" in the frame (x1).
  const std::string forged = source + "\x1f" + "x1";
  int forged_calls = 0;
  StatusOr<CachedPlan> entry = cache.GetOrCompileSource(
      forged, {}, vm, [&]() -> StatusOr<FormulaRef> {
        ++forged_calls;
        return InvalidArgumentError("formula parse error");
      });
  EXPECT_FALSE(entry.ok());
  EXPECT_EQ(forged_calls, 1);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(PlanCacheTest, SourceKeyedEntriesKeepTheByteBudget) {
  // One source-keyed entry is billed exactly EntryBytes of its key, and
  // the key carries the whole source text.
  {
    PlanCache cache;
    const std::string source = "exists y. (E(x1, y) & Red(y))";
    const std::vector<std::string> frame = {"x1"};
    int calls = 0;
    StatusOr<CachedPlan> entry = cache.GetOrCompileSource(
        source, frame, EvalOptions{}, CountingParser(source, &calls));
    ASSERT_TRUE(entry.ok());
    const std::string key =
        PlanCache::MakeKey(source, frame, EvalOptions{});
    EXPECT_NE(key.find(source), std::string::npos);
    EXPECT_EQ(cache.bytes(), PlanCache::EntryBytes(key, *entry));
  }
  PlanCache cache(/*max_bytes=*/16 * 1024);
  int calls = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string source = "exists x. exists y" + std::to_string(i) +
                               ". E(x, y" + std::to_string(i) + ")";
    ASSERT_TRUE(cache.GetOrCompileSource(source, {}, EvalOptions{},
                                         CountingParser(source, &calls))
                    .ok());
    ASSERT_LE(cache.bytes(), cache.max_bytes());
  }
  EXPECT_EQ(calls, 200);
  EXPECT_GT(cache.evictions(), 0);
  // An entry too large for the budget is served but never cached.
  PlanCache tiny(/*max_bytes=*/1);
  StatusOr<CachedPlan> oversize = tiny.GetOrCompileSource(
      "E(x1, x1)", std::vector<std::string>{"x1"}, EvalOptions{},
      CountingParser("E(x1, x1)", &calls));
  ASSERT_TRUE(oversize.ok());
  EXPECT_NE(oversize->plan, nullptr);
  EXPECT_EQ(tiny.entries(), 0);
  EXPECT_EQ(tiny.oversize_misses(), 1);
}

TEST_F(ServerTest, PingRoundTrip) {
  StartServer(ServerOptions{});
  Client client = MustConnect();
  Message request;
  request.Set("op", "ping");
  request.Set("payload", "hello");
  StatusOr<Message> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->Get("status"), kStatusOk);
  EXPECT_EQ(response->Get("payload"), "hello");
  EXPECT_EQ(ResponseExitCode(*response), 0);
}

TEST_F(ServerTest, LearnEvaluateQueryMatchDirectLibraryCalls) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 5);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok()) << session.status().message();

  // learn over the wire == BruteForceErm called directly.
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");

  ErmOptions options;
  options.rank = 1;
  options.radius = 1;
  ErmResult direct = BruteForceErm(problem.graph, problem.data, 0, options);
  EXPECT_EQ(learned->Get("model"),
            HypothesisToText(direct.hypothesis.ToExplicit()));
  EXPECT_EQ(learned->Get("training-error"), "0.000000");

  // evaluate the learned model over the wire == its direct error (0).
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(*session));
  evaluate.Set("model", learned->Get("model"));
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> evaluated = client.Call(evaluate);
  ASSERT_TRUE(evaluated.ok());
  ASSERT_EQ(evaluated->Get("status"), kStatusOk) << evaluated->Get("error");
  EXPECT_EQ(evaluated->Get("error"), "0.000000");

  // query: a red vertex exists; repeated queries hit the warm memo and
  // the shared plan cache.
  for (int i = 0; i < 3; ++i) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> answered = client.Call(query);
    ASSERT_TRUE(answered.ok());
    ASSERT_EQ(answered->Get("status"), kStatusOk) << answered->Get("error");
    EXPECT_EQ(answered->Get("result"), "true");
  }
  ServerStats stats = server_->Snapshot();
  EXPECT_GE(stats.plan_hits, 2);  // the two repeated query compilations
  EXPECT_TRUE(client.CloseSession(*session).ok());
}

TEST_F(ServerTest, SecondLearnReusesWarmRegistryAndBallCache) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(40, 7);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> cold = client.Call(learn);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->Get("status"), kStatusOk);
  StatusOr<Message> warm = client.Call(learn);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->Get("status"), kStatusOk);
  // Warm state must never change answers — model bytes are identical.
  EXPECT_EQ(cold->Get("model"), warm->Get("model"));
  EXPECT_EQ(cold->Get("training-error"), warm->Get("training-error"));
}

// The multi-tenant determinism contract: N clients with their own
// sessions, each running an interleaved learn/evaluate/query stream
// concurrently, get byte-identical results to the same streams executed
// sequentially against a fresh server.
TEST_F(ServerTest, ConcurrentSessionsMatchSequentialBaselines) {
  constexpr int kClients = 4;
  constexpr int kRounds = 3;

  // Sequential baselines, computed directly from the library.
  std::vector<TestProblem> problems;
  std::vector<std::string> baseline_models;
  for (int c = 0; c < kClients; ++c) {
    problems.push_back(MakeProblem(24 + 4 * c, 100 + c));
    ErmOptions options;
    options.rank = 1;
    options.radius = 1;
    ErmResult direct =
        BruteForceErm(problems[c].graph, problems[c].data, 0, options);
    baseline_models.push_back(
        HypothesisToText(direct.hypothesis.ToExplicit()));
  }

  StartServer(ServerOptions{});
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this, c, &problems, &baseline_models, &failures] {
      StatusOr<Client> client = Client::Connect(server_->socket_path());
      if (!client.ok()) {
        failures[c] = client.status().message();
        return;
      }
      StatusOr<uint64_t> session =
          client->LoadGraph(problems[c].graph_text);
      if (!session.ok()) {
        failures[c] = session.status().message();
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        Message learn;
        learn.Set("op", "learn");
        learn.Set("session", std::to_string(*session));
        learn.Set("data", problems[c].data_text);
        learn.Set("rank", "1");
        learn.Set("radius", "1");
        StatusOr<Message> learned = client->Call(learn);
        if (!learned.ok() || learned->Get("status") != kStatusOk ||
            learned->Get("model") != baseline_models[c]) {
          failures[c] = "learn mismatch in round " + std::to_string(round);
          return;
        }
        Message evaluate;
        evaluate.Set("op", "evaluate");
        evaluate.Set("session", std::to_string(*session));
        evaluate.Set("model", learned->Get("model"));
        evaluate.Set("data", problems[c].data_text);
        StatusOr<Message> evaluated = client->Call(evaluate);
        if (!evaluated.ok() ||
            evaluated->Get("error") != learned->Get("training-error")) {
          failures[c] = "evaluate mismatch in round " + std::to_string(round);
          return;
        }
        Message query;
        query.Set("op", "query");
        query.Set("session", std::to_string(*session));
        query.Set("sentence", "exists x. Red(x)");
        StatusOr<Message> answered = client->Call(query);
        if (!answered.ok() || answered->Get("result") != "true") {
          failures[c] = "query mismatch in round " + std::to_string(round);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
}

// Overload: with max_inflight=1 and one slow request holding the slot,
// concurrent requests are shed with a healthy response — never a dropped
// or hung connection.
TEST_F(ServerTest, OverloadShedsInsteadOfHangingOrSevering) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(std::move(options));
  // The slow leg must reliably occupy the single slot while the quick
  // client hammers: periodic labels prevent the zero-error early stop,
  // so the learn scans all n^ell candidates at radius 2.
  TestProblem slow_problem = MakeProblem(120, 11);
  for (Vertex v = 0; v < 120; ++v) {
    slow_problem.data[v].label = v % 7 < 3;
  }
  slow_problem.data_text = TrainingSetToText(slow_problem.data);
  TestProblem quick_problem = MakeProblem(10, 12);

  Client slow_client = MustConnect();
  StatusOr<uint64_t> slow_session =
      slow_client.LoadGraph(slow_problem.graph_text);
  ASSERT_TRUE(slow_session.ok());
  Client quick_client = MustConnect();
  StatusOr<uint64_t> quick_session =
      quick_client.LoadGraph(quick_problem.graph_text);
  ASSERT_TRUE(quick_session.ok());

  std::thread slow_thread([&] {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*slow_session));
    learn.Set("data", slow_problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "2");
    learn.Set("ell", "1");
    StatusOr<Message> response = slow_client.Call(learn);
    EXPECT_TRUE(response.ok());
  });

  // Wait until the slow learn actually occupies the slot — the inflight
  // gauge flips to 1 once the request is admitted. Without this the
  // hammer loop can race ahead of the slow thread's connect+write and
  // observe zero sheds.
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->Snapshot().inflight < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), admit_deadline)
        << "slow learn was never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Hammer the busy server; every response must arrive, and at least one
  // must be shed while the slow learn occupies the only slot.
  int shed = 0;
  int answered = 0;
  for (int i = 0; i < 50; ++i) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*quick_session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> response = quick_client.Call(query);
    ASSERT_TRUE(response.ok()) << response.status().message();
    const std::string status = response->Get("status");
    ASSERT_TRUE(status == kStatusOk || status == kStatusShed) << status;
    if (status == kStatusShed) {
      ++shed;
      EXPECT_EQ(ResponseExitCode(*response), 3);
    } else {
      ++answered;
      EXPECT_EQ(response->Get("result"), "true");
    }
  }
  slow_thread.join();
  EXPECT_GT(shed, 0) << "answered=" << answered;
  // Control-plane requests are admitted even under full load.
  EXPECT_TRUE(quick_client.Ping().ok());
  ServerStats stats = server_->Snapshot();
  EXPECT_EQ(stats.shed, shed);
}

TEST_F(ServerTest, DeadlineDegradesToPartialNotFailure) {
  ServerOptions options;
  options.max_deadline_ms = 0;  // every substantive request trips at once
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(30, 13);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("ell", "1");
  StatusOr<Message> response = client.Call(learn);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), kStatusPartial);
  EXPECT_EQ(ResponseExitCode(*response), 3);
  EXPECT_EQ(response->Get("run-status"), "deadline-exceeded");
  // Best-so-far payload is still a loadable model.
  EXPECT_TRUE(ParseHypothesis(response->Get("model")).ok());
}

TEST_F(ServerTest, WorkBudgetPartialIsDeterministic) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 17);
  // Periodic labels admit no zero-error hypothesis, so the budget trips
  // mid-scan rather than early-stopping.
  TrainingSet hard;
  for (Vertex v = 0; v < 30; ++v) hard.push_back({{v}, v % 7 < 3});
  const std::string hard_text = TrainingSetToText(hard);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", hard_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("ell", "1");
  learn.Set("max-work", "40");
  StatusOr<Message> first = client.Call(learn);
  StatusOr<Message> second = client.Call(learn);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Get("status"), kStatusPartial);
  EXPECT_EQ(first->Get("run-status"), "budget-exhausted");
  EXPECT_EQ(first->Get("model"), second->Get("model"));
  EXPECT_EQ(first->Get("work-used"), second->Get("work-used"));
}

TEST_F(ServerTest, MalformedInputsGetSysexitsStyleCodes) {
  StartServer(ServerOptions{});
  Client client = MustConnect();

  Message bad_graph;
  bad_graph.Set("op", "load-graph");
  bad_graph.Set("graph", "graph zz\n");
  StatusOr<Message> response = client.Call(bad_graph);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(*response), 65);

  Message unknown_op;
  unknown_op.Set("op", "frobnicate");
  response = client.Call(unknown_op);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);

  Message unknown_session;
  unknown_session.Set("op", "learn");
  unknown_session.Set("session", "999");
  unknown_session.Set("data", "examples 1\n+ 0\n");
  response = client.Call(unknown_session);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);

  // A vertex outside the session graph must be an error, not a CHECK.
  TestProblem problem = MakeProblem(10, 19);
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message out_of_range;
  out_of_range.Set("op", "learn");
  out_of_range.Set("session", std::to_string(*session));
  out_of_range.Set("data", "examples 1\n+ 5000\n");
  response = client.Call(out_of_range);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(*response), 65);

  // Malformed numeric fields mirror the CLI's exit-64 flag audit.
  Message bad_field;
  bad_field.Set("op", "learn");
  bad_field.Set("session", std::to_string(*session));
  bad_field.Set("data", problem.data_text);
  bad_field.Set("rank", "4x");
  response = client.Call(bad_field);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);

  // A query with a free variable is rejected, not CHECK-failed.
  Message open_query;
  open_query.Set("op", "query");
  open_query.Set("session", std::to_string(*session));
  open_query.Set("sentence", "Red(x)");
  response = client.Call(open_query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 65);
}

// A counting threshold past the int range must come back as a data error
// from both text-carrying ops, and the daemon must keep serving.
TEST_F(ServerTest, HugeCountingThresholdIsADataError) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(10, 21);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message query;
  query.Set("op", "query");
  query.Set("session", std::to_string(*session));
  query.Set("sentence", "exists>=99999999999 x. Red(x)");
  StatusOr<Message> response = client.Call(query);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(*response), 65);
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(*session));
  evaluate.Set("model",
               "hypothesis k 1 ell 0\n"
               "formula exists>=99999999999 x. Red(x)\n");
  evaluate.Set("data", "examples 1\n+ 0\n");
  response = client.Call(evaluate);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(*response), 65);
  // A vertex id past 32 bits is refused, not wrapped onto vertex 1.
  evaluate.Set("model", "hypothesis k 1 ell 0\nformula Red(x1)\n");
  evaluate.Set("data", "examples 1\n+ 4294967297\n");
  response = client.Call(evaluate);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(ResponseExitCode(*response), 65);
  EXPECT_TRUE(client.Ping().ok());
}

// The plan cache is keyed by formula source text, so a repeated text
// evaluate (or a text evaluate of a learned handle's model) parses
// nothing; a malformed or mis-framed text never gets an entry and is
// rejected the same way every time.
TEST_F(ServerTest, RepeatedTextEvaluateParsesTheModelOnce) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 47);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  auto model_parses = [&]() -> int64_t {
    Message stats;
    stats.Set("op", "stats");
    StatusOr<Message> observed = client.Call(stats);
    EXPECT_TRUE(observed.ok());
    return std::stoll(observed->Get("model-parses", "-1"));
  };
  auto evaluate = [&](const std::string& field, const std::string& value,
                      const std::string& data) {
    Message request;
    request.Set("op", "evaluate");
    request.Set("session", std::to_string(*session));
    request.Set(field, value);
    request.Set("data", data);
    StatusOr<Message> response = client.Call(request);
    EXPECT_TRUE(response.ok());
    return *response;
  };
  EXPECT_EQ(model_parses(), 0);

  // A learned handle carries its formula: no parse by handle, and the
  // same text shipped in full hits the handle's plan.
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
  Message by_handle =
      evaluate("model-id", learned->Get("model-id"), problem.data_text);
  ASSERT_EQ(by_handle.Get("status"), kStatusOk) << by_handle.Get("error");
  Message by_text = evaluate("model", learned->Get("model"), problem.data_text);
  ASSERT_EQ(by_text.Get("status"), kStatusOk) << by_text.Get("error");
  EXPECT_EQ(by_text.Get("error"), by_handle.Get("error"));
  EXPECT_EQ(model_parses(), 0);

  // A new text parses on its first request only.
  const std::string model =
      "hypothesis k 1 ell 1\nparams 0\nformula Red(x1) | E(x1, y1)\n";
  const int64_t plan_hits_before = server_->Snapshot().plan_hits;
  Message first = evaluate("model", model, problem.data_text);
  ASSERT_EQ(first.Get("status"), kStatusOk) << first.Get("error");
  EXPECT_EQ(model_parses(), 1);
  for (int rep = 0; rep < 4; ++rep) {
    Message again = evaluate("model", model, problem.data_text);
    ASSERT_EQ(again.Get("status"), kStatusOk) << again.Get("error");
    EXPECT_EQ(again.Get("error"), first.Get("error"));
  }
  EXPECT_EQ(model_parses(), 1);
  EXPECT_EQ(server_->Snapshot().plan_hits, plan_hits_before + 4);
  // Parameters and arity are still checked on every (cached) request.
  Message bad_param = evaluate(
      "model", "hypothesis k 1 ell 1\nparams 999\nformula Red(x1) | E(x1, y1)\n",
      problem.data_text);
  EXPECT_EQ(ResponseExitCode(bad_param), 65);
  Message bad_arity = evaluate("model", model, "examples 2\n+ 0 1\n");
  EXPECT_EQ(ResponseExitCode(bad_arity), 65);

  // A malformed text is rejected identically every time, and since it
  // never gets an entry each request parses it again.
  const std::string malformed = "hypothesis k 1 ell 0\nformula Red(x1\n";
  Message rejected = evaluate("model", malformed, problem.data_text);
  EXPECT_EQ(rejected.Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(rejected), 65);
  const int64_t parses = model_parses();
  for (int rep = 0; rep < 3; ++rep) {
    Message again = evaluate("model", malformed, problem.data_text);
    EXPECT_EQ(again.Get("status"), rejected.Get("status"));
    EXPECT_EQ(again.Get("code"), rejected.Get("code"));
    EXPECT_EQ(again.Get("error"), rejected.Get("error"));
  }
  EXPECT_EQ(model_parses(), parses + 3);

  // The formula line "Red(x1) | E(x1, y1)" is cached in the frame
  // (x1, y1); sent without the parameter, y1 falls outside its own frame
  // (x1) and the text is still refused.
  Message narrow = evaluate(
      "model", "hypothesis k 1 ell 0\nformula Red(x1) | E(x1, y1)\n",
      problem.data_text);
  EXPECT_EQ(narrow.Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(narrow), 65);
  EXPECT_NE(narrow.Get("error").find("unknown free variable 'y1'"),
            std::string::npos)
      << narrow.Get("error");

  // By-text query sentences are keyed the same way.
  const int64_t before_queries = model_parses();
  for (int rep = 0; rep < 3; ++rep) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> answered = client.Call(query);
    ASSERT_TRUE(answered.ok());
    EXPECT_EQ(answered->Get("result"), "true");
  }
  EXPECT_EQ(model_parses(), before_queries + 1);
}

// Text evaluates resolve their plan outside the session lock: several
// clients evaluating one shipped model on one session while another learns
// there must all get the same answer (the TSan job runs this).
TEST_F(ServerTest, ConcurrentTextEvaluatesOnOneSessionAgree) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 53);
  Client setup = MustConnect();
  StatusOr<uint64_t> session = setup.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(*session));
  evaluate.Set("model",
               "hypothesis k 1 ell 1\nparams 2\n"
               "formula Red(x1) | exists z. (E(x1, z) & E(z, y1))\n");
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> expected = setup.Call(evaluate);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->Get("status"), kStatusOk) << expected->Get("error");
  // A fresh source text, so the racing clients also race on the miss.
  evaluate.Set("model",
               "hypothesis k 1 ell 1\nparams 2\n"
               "formula (Red(x1) | exists z. (E(x1, z) & E(z, y1)))\n");

  std::vector<std::string> failures(4);
  std::vector<std::thread> workers;
  for (int c = 0; c < 4; ++c) {
    workers.emplace_back([&, c] {
      StatusOr<Client> client = Client::Connect(server_->socket_path());
      if (!client.ok()) {
        failures[c] = "connect failed";
        return;
      }
      Message learn;
      learn.Set("op", "learn");
      learn.Set("session", std::to_string(*session));
      learn.Set("data", problem.data_text);
      learn.Set("rank", "1");
      learn.Set("radius", "1");
      for (int rep = 0; rep < 10; ++rep) {
        StatusOr<Message> response = client->Call(c == 0 ? learn : evaluate);
        if (!response.ok() || response->Get("status") != kStatusOk) {
          failures[c] = "request failed in rep " + std::to_string(rep);
          return;
        }
        if (c != 0 && response->Get("error") != expected->Get("error")) {
          failures[c] = "verdict mismatch in rep " + std::to_string(rep);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(failures[c], "") << "client " << c;
}

TEST(ProtocolTest, SocketPathValidation) {
  EXPECT_FALSE(ValidateSocketPath("").ok());
  EXPECT_TRUE(ValidateSocketPath("/tmp/ok.sock").ok());
  const std::string long_path = "/tmp/" + std::string(200, 'x') + ".sock";
  Status status = ValidateSocketPath(long_path);
  ASSERT_FALSE(status.ok());
  // The tool binaries translate this into their exit-64 flag audit.
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The client refuses the same paths before touching the socket layer.
  EXPECT_EQ(Client::Connect(long_path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ModelHandleRoundTrip) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 23);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
  const std::string model_id = learned->Get("model-id");
  ASSERT_FALSE(model_id.empty());

  // get-model returns the registered model byte-identically.
  Message get;
  get.Set("op", "get-model");
  get.Set("session", std::to_string(*session));
  get.Set("model-id", model_id);
  StatusOr<Message> fetched = client.Call(get);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->Get("status"), kStatusOk) << fetched->Get("error");
  EXPECT_EQ(fetched->Get("model"), learned->Get("model"));

  // Repeating the identical learn reuses the handle: no second model.
  StatusOr<Message> again = client.Call(learn);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Get("model-id"), model_id);
  Message list;
  list.Set("op", "list-models");
  list.Set("session", std::to_string(*session));
  StatusOr<Message> listed = client.Call(list);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->Get("count"), "1");
  EXPECT_EQ(listed->Get("models"), model_id);

  // evaluate by handle == evaluate by shipped text.
  Message eval_text;
  eval_text.Set("op", "evaluate");
  eval_text.Set("session", std::to_string(*session));
  eval_text.Set("model", learned->Get("model"));
  eval_text.Set("data", problem.data_text);
  StatusOr<Message> by_text = client.Call(eval_text);
  ASSERT_TRUE(by_text.ok());
  ASSERT_EQ(by_text->Get("status"), kStatusOk) << by_text->Get("error");
  Message eval_handle;
  eval_handle.Set("op", "evaluate");
  eval_handle.Set("session", std::to_string(*session));
  eval_handle.Set("model-id", model_id);
  eval_handle.Set("data", problem.data_text);
  StatusOr<Message> by_handle = client.Call(eval_handle);
  ASSERT_TRUE(by_handle.ok());
  ASSERT_EQ(by_handle->Get("status"), kStatusOk) << by_handle->Get("error");
  EXPECT_EQ(by_handle->Get("error"), by_text->Get("error"));
  EXPECT_EQ(by_handle->Get("examples-seen"), by_text->Get("examples-seen"));

  // query by handle classifies tuples like the evaluated model.
  StatusOr<Hypothesis> hypothesis =
      ParseHypothesis(learned->Get("model"));
  ASSERT_TRUE(hypothesis.ok());
  for (Vertex v : {Vertex{0}, Vertex{1}, Vertex{2}}) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*session));
    query.Set("model-id", model_id);
    query.Set("tuple", std::to_string(v));
    StatusOr<Message> answered = client.Call(query);
    ASSERT_TRUE(answered.ok());
    ASSERT_EQ(answered->Get("status"), kStatusOk) << answered->Get("error");
    // Training error was 0, so the model agrees with the labels.
    EXPECT_EQ(answered->Get("result"),
              problem.data[v].label ? "true" : "false");
  }

  // Handle misuse: unknown ids and ambiguous forms are usage errors.
  Message unknown;
  unknown.Set("op", "evaluate");
  unknown.Set("session", std::to_string(*session));
  unknown.Set("model-id", "999");
  unknown.Set("data", problem.data_text);
  StatusOr<Message> response = client.Call(unknown);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);
  Message ambiguous;
  ambiguous.Set("op", "evaluate");
  ambiguous.Set("session", std::to_string(*session));
  ambiguous.Set("model", learned->Get("model"));
  ambiguous.Set("model-id", model_id);
  ambiguous.Set("data", problem.data_text);
  response = client.Call(ambiguous);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);
}

TEST_F(ServerTest, DurableSessionsSurviveRestartByteIdentically) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  StartServer(options);
  TestProblem problem = MakeProblem(30, 29);
  std::string model_text;
  std::string model_id;
  std::string eval_error;
  uint64_t session_id = 0;
  {
    Client client = MustConnect();
    StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
    ASSERT_TRUE(session.ok());
    session_id = *session;
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(session_id));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    learn.Set("request-id", "learn-once");
    StatusOr<Message> learned = client.Call(learn);
    ASSERT_TRUE(learned.ok());
    ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
    EXPECT_FALSE(learned->Has("deduped"));
    model_text = learned->Get("model");
    model_id = learned->Get("model-id");
    Message evaluate;
    evaluate.Set("op", "evaluate");
    evaluate.Set("session", std::to_string(session_id));
    evaluate.Set("model-id", model_id);
    evaluate.Set("data", problem.data_text);
    StatusOr<Message> evaluated = client.Call(evaluate);
    ASSERT_TRUE(evaluated.ok());
    eval_error = evaluated->Get("error");
  }

  RestartServer();
  ServerStats stats = server_->Snapshot();
  EXPECT_EQ(stats.sessions_recovered, 1);

  Client client = MustConnect();
  // The recovered session serves the model byte-identically, through the
  // handle and through get-model, after a lazy re-warm.
  Message get;
  get.Set("op", "get-model");
  get.Set("session", std::to_string(session_id));
  get.Set("model-id", model_id);
  StatusOr<Message> fetched = client.Call(get);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->Get("status"), kStatusOk) << fetched->Get("error");
  EXPECT_EQ(fetched->Get("model"), model_text);
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(session_id));
  evaluate.Set("model-id", model_id);
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> evaluated = client.Call(evaluate);
  ASSERT_TRUE(evaluated.ok());
  ASSERT_EQ(evaluated->Get("status"), kStatusOk) << evaluated->Get("error");
  EXPECT_EQ(evaluated->Get("error"), eval_error);
  stats = server_->Snapshot();
  EXPECT_EQ(stats.sessions_rewarmed, 1);

  // The dedup window also survived: the same request-id replays the
  // acknowledged response instead of learning again.
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(session_id));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("request-id", "learn-once");
  StatusOr<Message> replayed = client.Call(learn);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->Get("deduped"), "1");
  EXPECT_EQ(replayed->Get("model"), model_text);
  EXPECT_EQ(replayed->Get("model-id"), model_id);
  EXPECT_EQ(server_->Snapshot().dedup_hits, 1);

  // New sessions never reuse a recovered id.
  StatusOr<uint64_t> fresh = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, session_id);

  // close-session removes the journal: another restart forgets it.
  ASSERT_TRUE(client.CloseSession(session_id).ok());
  RestartServer();
  Client after = MustConnect();
  Message gone;
  gone.Set("op", "get-model");
  gone.Set("session", std::to_string(session_id));
  gone.Set("model-id", model_id);
  StatusOr<Message> missing = after.Call(gone);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(ResponseExitCode(*missing), 64);
}

TEST_F(ServerTest, FileBackedSessionSurvivesRestartAndDetectsSwaps) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  StartServer(options);
  TestProblem problem = MakeProblem(40, 30);
  problem.graph.Finalize();
  // The state dir exists once the server started; park the graph file
  // there so teardown sweeps it too.
  const std::string fog_path = options_.state_dir + "/session.fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());

  Client client = MustConnect();
  Message load;
  load.Set("op", "load-graph");
  load.Set("graph-file", fog_path);
  StatusOr<Message> loaded = client.Call(load);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->Get("status"), kStatusOk) << loaded->Get("error");
  const std::string session = loaded->Get("session");
  EXPECT_EQ(loaded->Get("order"), "40");

  auto query = [&](Client& c) -> StatusOr<Message> {
    Message request;
    request.Set("op", "query");
    request.Set("session", session);
    request.Set("sentence", "exists x. Red(x)");
    return c.Call(request);
  };
  StatusOr<Message> answer = query(client);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->Get("status"), kStatusOk) << answer->Get("error");
  EXPECT_EQ(answer->Get("result"), "true");

  // Restart: the journal references the file by path + fingerprint, and
  // the re-warm memory-maps it back in.
  RestartServer();
  Client warm = MustConnect();
  StatusOr<Message> after = query(warm);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->Get("status"), kStatusOk) << after->Get("error");
  EXPECT_EQ(after->Get("result"), "true");
  EXPECT_EQ(server_->Snapshot().sessions_rewarmed, 1);

  // Swap the file for a different graph: the next re-warm must refuse
  // with a data-loss error, not silently answer for the wrong graph.
  TestProblem other = MakeProblem(12, 31);
  other.graph.Finalize();
  ASSERT_TRUE(WriteFogFile(fog_path, other.graph).ok());
  RestartServer();
  Client swapped = MustConnect();
  StatusOr<Message> refused = query(swapped);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(ResponseExitCode(*refused), 65);
  const std::string error = refused->Get("error");
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST_F(ServerTest, DedupWindowIsBounded) {
  ServerOptions options;
  options.dedup_window = 2;
  StartServer(options);
  TestProblem problem = MakeProblem(20, 31);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  auto send = [&](const std::string& rid) {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*session));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    learn.Set("request-id", rid);
    StatusOr<Message> response = client.Call(learn);
    EXPECT_TRUE(response.ok());
    return *std::move(response);
  };
  send("a");
  send("b");
  send("c");  // evicts "a" from the window of 2
  EXPECT_EQ(send("c").Get("deduped"), "1");
  EXPECT_EQ(send("b").Get("deduped"), "1");
  EXPECT_FALSE(send("a").Has("deduped"));  // evicted: runs afresh
}

// A client that vanishes mid-request costs its connection and nothing
// else: the session stays usable and the admission slot is released
// (with max_inflight=1, a leak would shed everything afterwards).
TEST_F(ServerTest, DisconnectMidRequestDropsConnectionOnly) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(options);
  TestProblem problem = MakeProblem(20, 37);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  // Torn frame: a header promising 100 bytes, then 10, then close.
  for (int i = 0; i < 3; ++i) {
    int fd = RawConnect();
    const unsigned char torn[14] = {100, 0, 0, 0, 'p', 'a', 'r', 't', 'i',
                                    'a', 'l', 'x', 'y', 'z'};
    ASSERT_EQ(::send(fd, torn, sizeof(torn), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(torn)));
    ::close(fd);
  }
  // Full substantive request, then close without reading the response:
  // the server runs it and hits a dead peer on the write.
  for (int i = 0; i < 3; ++i) {
    int fd = RawConnect();
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*session));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    ASSERT_TRUE(WriteFrame(fd, learn).ok());
    ::close(fd);
  }

  // The daemon is unharmed: the session still answers, substantive
  // requests are admitted (no leaked inflight slot), and the torn frames
  // were counted as disconnects.
  bool learned_after_storm = false;
  for (int attempt = 0; attempt < 100 && !learned_after_storm; ++attempt) {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*session));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    StatusOr<Message> response = client.Call(learn);
    ASSERT_TRUE(response.ok()) << response.status().message();
    if (response->Get("status") == kStatusShed) {
      // An abandoned learn may still hold the only slot; give it a beat.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    ASSERT_EQ(response->Get("status"), kStatusOk) << response->Get("error");
    learned_after_storm = true;
  }
  EXPECT_TRUE(learned_after_storm) << "inflight slot appears leaked";
  // The torn connections' threads race this snapshot: closing our end of
  // the socket returns before the server thread observes EOF and bumps
  // the counter, so poll until the storm has been fully accounted for.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ServerStats stats = server_->Snapshot();
  while (stats.disconnects < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server_->Snapshot();
  }
  EXPECT_GE(stats.disconnects, 3);
  EXPECT_EQ(stats.sessions_closed, 0);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, IdleTtlEvictsAndJournaledSessionsRewarm) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.session_ttl_ms = 50;
  StartServer(options);
  TestProblem problem = MakeProblem(20, 41);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk);

  // Idle well past the TTL: the sweeper demotes the session to cold.
  for (int i = 0; i < 100 && server_->Snapshot().sessions_evicted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->Snapshot().sessions_evicted, 1);

  // The evicted session transparently re-warms on next use, with the
  // model handle intact.
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(*session));
  evaluate.Set("model-id", learned->Get("model-id"));
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> evaluated = client.Call(evaluate);
  ASSERT_TRUE(evaluated.ok());
  ASSERT_EQ(evaluated->Get("status"), kStatusOk) << evaluated->Get("error");
  EXPECT_GE(server_->Snapshot().sessions_rewarmed, 1);
}

TEST_F(ServerTest, IdleTtlClosesMemoryOnlySessions) {
  ServerOptions options;
  options.session_ttl_ms = 50;  // no state dir: eviction is closure
  StartServer(options);
  TestProblem problem = MakeProblem(15, 43);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 100 && server_->Snapshot().sessions_evicted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->Snapshot().sessions_evicted, 1);
  Message query;
  query.Set("op", "query");
  query.Set("session", std::to_string(*session));
  query.Set("sentence", "exists x. Red(x)");
  StatusOr<Message> response = client.Call(query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);  // unknown session now
}

TEST_F(ServerTest, HeartbeatKeepsIdleSessionAlive) {
  ServerOptions options;
  // Generous TTL: under parallel ctest load a 100ms sleep can stretch far
  // past its nominal duration, and the session must still look fresh.
  options.session_ttl_ms = 5000;
  StartServer(options);
  TestProblem problem = MakeProblem(15, 47);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  // Heartbeats at a fraction of the TTL hold the session in memory.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Message ping;
    ping.Set("op", "ping");
    ping.Set("session", std::to_string(*session));
    StatusOr<Message> response = client.Call(ping);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->Get("session-known"), "1");
  }
  EXPECT_EQ(server_->Snapshot().sessions_evicted, 0);
  Message ping;
  ping.Set("op", "ping");
  ping.Set("session", "12345");
  StatusOr<Message> response = client.Call(ping);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("session-known"), "0");
}

TEST_F(ServerTest, RetryingClientRidesThroughShed) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(options);
  TestProblem slow_problem = MakeProblem(120, 53);
  for (Vertex v = 0; v < 120; ++v) {
    slow_problem.data[v].label = v % 7 < 3;
  }
  slow_problem.data_text = TrainingSetToText(slow_problem.data);
  Client slow_client = MustConnect();
  StatusOr<uint64_t> slow_session =
      slow_client.LoadGraph(slow_problem.graph_text);
  ASSERT_TRUE(slow_session.ok());

  TestProblem quick_problem = MakeProblem(10, 54);
  Client setup = MustConnect();
  StatusOr<uint64_t> quick_session =
      setup.LoadGraph(quick_problem.graph_text);
  ASSERT_TRUE(quick_session.ok());

  std::thread slow_thread([&] {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*slow_session));
    learn.Set("data", slow_problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "2");
    learn.Set("ell", "1");
    EXPECT_TRUE(slow_client.Call(learn).ok());
  });

  RetryPolicy policy;
  policy.max_retries = 200;
  policy.backoff_ms = 2;
  policy.max_backoff_ms = 20;
  RetryingClient retrying(server_->socket_path(), policy);
  // Substantive requests keep succeeding against the saturated server —
  // sheds are absorbed by the retry loop, never surfaced.
  for (int i = 0; i < 10; ++i) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*quick_session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> response = retrying.Call(query);
    ASSERT_TRUE(response.ok()) << response.status().message();
    ASSERT_EQ(response->Get("status"), kStatusOk) << response->Get("error");
    EXPECT_EQ(response->Get("result"), "true");
  }
  slow_thread.join();

  // Terminal responses surface immediately: no retry budget is burned on
  // a request that is itself at fault.
  Message bad;
  bad.Set("op", "query");
  bad.Set("session", std::to_string(*quick_session));
  bad.Set("sentence", "Red(x)");  // free variable: data error
  StatusOr<Message> response = retrying.Call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 65);
  EXPECT_EQ(retrying.last_attempts(), 1);
}

TEST_F(ServerTest, RetryingClientReconnectsAcrossRestart) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  StartServer(options);
  TestProblem problem = MakeProblem(20, 59);
  Client setup = MustConnect();
  StatusOr<uint64_t> session = setup.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  RetryPolicy policy;
  policy.max_retries = 100;
  policy.backoff_ms = 5;
  policy.max_backoff_ms = 50;
  RetryingClient retrying(server_->socket_path(), policy);
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("request-id", "across-restart");
  StatusOr<Message> first = retrying.Call(learn);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->Get("status"), kStatusOk) << first->Get("error");

  // Kill the daemon; re-issue the same request while a restart lands.
  server_->Shutdown();
  serve_thread_.join();
  std::thread restarter([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server_ = std::make_unique<Server>(ServerOptions(options_));
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  });
  StatusOr<Message> second = retrying.Call(learn);
  restarter.join();
  ASSERT_TRUE(second.ok()) << second.status().message();
  ASSERT_EQ(second->Get("status"), kStatusOk) << second->Get("error");
  EXPECT_GT(retrying.last_attempts(), 1);
  // The journaled dedup window made the cross-restart retry idempotent.
  EXPECT_EQ(second->Get("deduped"), "1");
  EXPECT_EQ(second->Get("model"), first->Get("model"));
  EXPECT_EQ(second->Get("model-id"), first->Get("model-id"));
}

// ---------------------------------------------------------------------
// Memory governance: pressure-tier gating, per-session budgets, journal
// compaction, and the stats surface. Tiers are pinned with force_tier so
// every behaviour here is deterministic.

TEST_F(ServerTest, BlackTierShedsSubstantiveButServesHeartbeats) {
  ServerOptions options;
  options.force_tier = static_cast<int>(PressureTier::kBlack);
  StartServer(std::move(options));
  Client client = MustConnect();
  // The ops that observe or relieve the pressure stay admitted.
  ASSERT_TRUE(client.Ping().ok());
  Message stats;
  stats.Set("op", "stats");
  StatusOr<Message> observed = client.Call(stats);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(observed->Get("status"), kStatusOk);
  EXPECT_EQ(observed->Get("mem-tier"), "black");
  // Every substantive request is shed retry-safe with the temp-fail code.
  TestProblem problem = MakeProblem(10, 41);
  Message load;
  load.Set("op", "load-graph");
  load.Set("graph", problem.graph_text);
  StatusOr<Message> shed = client.Call(load);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->Get("status"), kStatusShed);
  EXPECT_EQ(shed->Get("code"), "75");
  EXPECT_EQ(shed->Get("tier"), "black");
  EXPECT_TRUE(IsRetryableResponse(*shed));
  EXPECT_EQ(ResponseExitCode(*shed), 3);
  EXPECT_GE(server_->Snapshot().mem_shed, 1);
  // Shedding is stateless: the daemon still answers after it.
  ASSERT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, YellowTierShedsHeapGraphsButAdmitsMmapPacks) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.force_tier = static_cast<int>(PressureTier::kYellow);
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(24, 42);
  problem.graph.Finalize();
  const std::string fog_path = options_.state_dir + "/pressure.fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());

  Client client = MustConnect();
  // Inline text would become a heap-resident parse: shed retry-safe.
  Message inline_load;
  inline_load.Set("op", "load-graph");
  inline_load.Set("graph", problem.graph_text);
  StatusOr<Message> shed = client.Call(inline_load);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->Get("status"), kStatusShed);
  EXPECT_EQ(shed->Get("tier"), "yellow");
  // The .fog pack is memory-mapped — reclaimable pages — so it loads.
  Message pack_load;
  pack_load.Set("op", "load-graph");
  pack_load.Set("graph-file", fog_path);
  StatusOr<Message> loaded = client.Call(pack_load);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->Get("status"), kStatusOk) << loaded->Get("error");
  const std::string session = loaded->Get("session");
  // And the admitted session serves substantive work under yellow.
  Message query;
  query.Set("op", "query");
  query.Set("session", session);
  query.Set("sentence", "exists x. Red(x)");
  StatusOr<Message> answer = client.Call(query);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->Get("status"), kStatusOk) << answer->Get("error");
  EXPECT_EQ(answer->Get("result"), "true");
}

TEST_F(ServerTest, RedTierEvictsIdleWarmStateAndRewarmsOnUse) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.force_tier = static_cast<int>(PressureTier::kRed);
  options.mem_watchdog_ms = 10;
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(24, 43);
  problem.graph.Finalize();
  const std::string fog_path = options_.state_dir + "/red.fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());

  Client client = MustConnect();
  Message load;
  load.Set("op", "load-graph");
  load.Set("graph-file", fog_path);
  StatusOr<Message> loaded = client.Call(load);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->Get("status"), kStatusOk) << loaded->Get("error");
  const std::string session = loaded->Get("session");

  auto query = [&]() -> StatusOr<Message> {
    Message request;
    request.Set("op", "query");
    request.Set("session", session);
    request.Set("sentence", "exists x. Red(x)");
    return client.Call(request);
  };
  StatusOr<Message> warm = query();
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->Get("status"), kStatusOk) << warm->Get("error");

  // The watchdog sweeps the now-idle journaled session back to cold.
  ServerStats snapshot;
  for (int i = 0; i < 200; ++i) {
    snapshot = server_->Snapshot();
    if (snapshot.warm_evictions >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(snapshot.warm_evictions, 1) << "red tier never demoted the "
                                           "idle journaled session";

  // Demotion, not loss: the next request lazily re-warms and answers
  // identically.
  StatusOr<Message> rewarmed = query();
  ASSERT_TRUE(rewarmed.ok());
  ASSERT_EQ(rewarmed->Get("status"), kStatusOk) << rewarmed->Get("error");
  EXPECT_EQ(rewarmed->Get("result"), warm->Get("result"));
}

TEST_F(ServerTest, SessionMemBudgetCutsLearnToGovernedPartial) {
  ServerOptions options;
  // A cap no session stays under: the graph text's forced charge alone
  // overshoots it, so the learn's governor cuts at its first probe.
  options.session_mem_bytes = 64;
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(30, 44);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok()) << session.status().message();
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> cut = client.Call(learn);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->Get("status"), kStatusPartial) << cut->Get("error");
  EXPECT_EQ(cut->Get("run-status"), "resource-exhausted");
  EXPECT_EQ(ResponseExitCode(*cut), 3);
  // Governed, not broken: the session keeps serving.
  ASSERT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, JournalCompactionDropsOldestModelsAndSurvivesRestart) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.max_session_models = 2;
  StartServer(options);
  TestProblem problem = MakeProblem(24, 45);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  // Identical model text reuses its handle, so distinct labelings are
  // needed to actually grow the model table past the cap.
  auto relabel = [&](int mode) {
    TrainingSet data = problem.data;
    for (size_t i = 0; i < data.size(); ++i) {
      data[i].label = mode == 0   ? data[i].label
                      : mode == 1 ? true
                                  : false;
    }
    return TrainingSetToText(data);
  };
  auto learn = [&](const std::string& request_id,
                   const std::string& data_text) -> std::string {
    Message request;
    request.Set("op", "learn");
    request.Set("session", std::to_string(*session));
    request.Set("data", data_text);
    request.Set("rank", "1");
    request.Set("radius", "1");
    request.Set("request-id", request_id);
    StatusOr<Message> learned = client.Call(request);
    EXPECT_TRUE(learned.ok());
    EXPECT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
    return learned->Get("model-id");
  };
  const std::string first = learn("compact-1", relabel(0));
  const std::string second = learn("compact-2", relabel(1));
  const std::string third = learn("compact-3", relabel(2));
  ASSERT_NE(first, second);
  ASSERT_NE(second, third);
  ASSERT_NE(first, third);

  auto get_model = [&](Client& c, const std::string& id) -> StatusOr<Message> {
    Message request;
    request.Set("op", "get-model");
    request.Set("session", std::to_string(*session));
    request.Set("model-id", id);
    return c.Call(request);
  };
  // The cap is 2: the third learn compacted the oldest handle away.
  StatusOr<Message> dropped = get_model(client, first);
  ASSERT_TRUE(dropped.ok());
  EXPECT_NE(dropped->Get("status"), kStatusOk);
  StatusOr<Message> kept = get_model(client, third);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->Get("status"), kStatusOk) << kept->Get("error");
  const std::string third_text = kept->Get("model");
  ServerStats stats = server_->Snapshot();
  EXPECT_GE(stats.models_compacted, 1);
  EXPECT_GE(stats.journal_compactions, 1);

  // The compacted journal is what restarts recover: the dropped handle
  // stays dropped, the survivors stay byte-identical.
  RestartServer();
  Client recovered = MustConnect();
  StatusOr<Message> still_dropped = get_model(recovered, first);
  ASSERT_TRUE(still_dropped.ok());
  EXPECT_NE(still_dropped->Get("status"), kStatusOk);
  StatusOr<Message> still_kept = get_model(recovered, third);
  ASSERT_TRUE(still_kept.ok());
  ASSERT_EQ(still_kept->Get("status"), kStatusOk)
      << still_kept->Get("error");
  EXPECT_EQ(still_kept->Get("model"), third_text);
  (void)second;
}

TEST_F(ServerTest, StatsExposeMemoryGovernanceGauges) {
  ServerOptions options;
  options.mem_budget_bytes = int64_t{4} << 30;  // roomy: stays green
  options.mem_watchdog_ms = 10;
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(20, 46);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message stats;
  stats.Set("op", "stats");
  StatusOr<Message> observed = client.Call(stats);
  ASSERT_TRUE(observed.ok());
  ASSERT_EQ(observed->Get("status"), kStatusOk);
  EXPECT_EQ(observed->Get("mem-tier"), "green");
  EXPECT_EQ(observed->Get("mem-budget-bytes"),
            std::to_string(int64_t{4} << 30));
  // The loaded graph's forced charge is visible in the accounted gauge.
  EXPECT_GT(std::stoll(observed->Get("mem-used-bytes")), 0);
  EXPECT_GT(std::stoll(observed->Get("mem-peak-bytes")), 0);
  EXPECT_GT(std::stoll(observed->Get("rss-bytes")), 0);
  EXPECT_EQ(observed->Get("mem-shed"), "0");
}

TEST_F(ServerTest, ShutdownOpStopsTheServeLoop) {
  StartServer(ServerOptions{});
  Client client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.RequestShutdown().ok());
  serve_thread_.join();
  // The socket file is gone; new connections fail cleanly.
  StatusOr<Client> late = Client::Connect(server_->socket_path());
  EXPECT_FALSE(late.ok());
}

}  // namespace
}  // namespace folearn
