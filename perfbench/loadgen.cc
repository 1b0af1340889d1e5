// folearnd benchmark load generator.
//
//   folearnd_loadgen --workload evaluate-bulk|evaluate-text|learn-shared
//                    --seed N --seconds S --trace 0|1 --folearnd PATH
//
// Synthesises the workload's inputs from the seed, computes the oracle's
// answers in-process, spawns folearnd, sets it up (load, learn, prime),
// drives it closed-loop from two client threads for S seconds, in segments
// with a set-up timed on a throw-away daemon after each, and checks every
// response. With --trace 1 it then replays the same request sequence
// in-process through the layers' public functions, with spans, and
// reports per-layer metrics instead of the end-to-end ones. The last line
// of stdout is one JSON object; see README.md for every metric.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.h"
#include "graph/fog.h"
#include "replay.h"
#include "server/client.h"
#include "server/protocol.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using folearn::Client;
using folearn::Message;
using folearn::StatusOr;

// The window runs in kSegments segments. Set-up is timed before the first
// (the daemon the window runs on) and after each (a throw-away daemon), so
// set-up samples, and the evaluate workloads' set-up learns, are spread
// over the whole run instead of bunched at its start.
constexpr int kSegments = 20;
// Throughput and the latency medians are taken per block of the window,
// kBlocksPerSegment per segment, and then combined over the blocks.
constexpr int kBlocksPerSegment = 2;
constexpr int64_t kReplayBudgetNs = 2'500'000'000;  // traced window replay
constexpr size_t kReplayChunk = 32;  // requests per daemon turn in the replay
constexpr std::chrono::milliseconds kReaderDelay{2};  // learn-shared

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string folearnd;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        flags->workload = value;
      } else if (key == "--seed") {
        flags->seed = std::stoull(value);
      } else if (key == "--seconds") {
        flags->seconds = std::stoi(value);
      } else if (key == "--trace") {
        flags->trace = std::stoi(value);
      } else if (key == "--folearnd") {
        flags->folearnd = value;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(),
                   key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty() && flags->seconds > 0 &&
         (flags->trace == 0 || flags->trace == 1) && !flags->folearnd.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(fraction * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

// A fixed pure-CPU loop, timed: the host-noise yardstick printed next to
// the metrics (median of three). Four independent xorshift chains keep the
// core's issue slots busy, so the loop slows, like the daemon does, when a
// co-tenant shares the core; a single dependent chain barely notices.
double CalibrationMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    uint64_t x[4] = {0x9e3779b97f4a7c15ull, 1, 2, 3};
    for (int i = 0; i < 40'000'000; ++i) {
      for (uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
    }
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    if ((x[0] ^ x[1] ^ x[2] ^ x[3]) == 42) std::printf("#\n");  // keeps it live
  }
  return Median(ms);
}

// One request the benchmark sent, and what came back.
struct Sent {
  RequestSpec spec;
  uint64_t session_id = 0;  // the session addressed (loads: the new one)
  int64_t latency_ns = 0;
  int64_t done_ns = 0;
  int64_t seq = 0;          // completion order across clients
  bool answered = false;    // a response frame came back
  bool verified = false;    // its payload matched the oracle
  uint64_t model_id = 0;    // learns and handle evaluates echo one
  std::string model_text;
  std::string error;        // evaluate error, or learn training error
};

struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  size_t samples = 0;
};

Percentiles LatencyMs(const std::vector<Sent>& sent, Op op) {
  std::vector<double> ms;
  for (const Sent& s : sent) {
    if (s.spec.op == op) ms.push_back(static_cast<double>(s.latency_ns) / 1e6);
  }
  return {Median(ms), Percentile(ms, 0.9), ms.size()};
}

Message StatsOf(Client& client) {
  Message request;
  request.Set("op", "stats");
  StatusOr<Message> response = client.Call(request);
  return response.ok() ? *response : Message();
}

double StatDelta(const Message& before, const Message& after,
                 const char* key) {
  return static_cast<double>(std::atoll(after.Get(key, "0").c_str()) -
                             std::atoll(before.Get(key, "0").c_str()));
}

uint64_t IdField(const Message& message, const char* key) {
  return std::strtoull(message.Get(key, "0").c_str(), nullptr, 10);
}

// One request through an in-process oracle, untraced; an undecodable
// answer comes back empty, which no check accepts.
Message Ask(ReplayDaemon& oracle, const Message& request) {
  Tracer off(false);
  StatusOr<Message> answer = folearn::DecodeMessage(
      oracle.Handle(folearn::EncodeMessage(request), off));
  return answer.ok() ? *answer : Message();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Run {
 public:
  Run(Flags flags, Kind kind)
      : flags_(std::move(flags)),
        kind_(kind),
        dir_(".bench_run/" + std::to_string(::getpid())) {}

  // Returns the process exit code.
  int Main();

 private:
  struct Live {
    std::string socket;
    DaemonProcess daemon;
    std::vector<Client> clients;
    std::vector<uint64_t> sessions;                // per workload session
    std::vector<std::vector<uint64_t>> model_ids;  // served model handles
  };

  void ComputeSetupReference();
  bool Setup(Live* live, std::vector<Sent>* sent, std::string* error);
  bool TimedSetup(Live* live, std::vector<Sent>* kept);
  void Send(Client& client, const RequestSpec& spec, uint64_t session,
            Sent* sent);
  void Check(Sent* sent, const Message& response);
  void Window(Live* live, int64_t duration_ns);
  std::vector<std::vector<const Sent*>> Blocks(Op op) const;
  double Throughput(Op primary) const;
  double BlockMedianMs(Op op) const;
  void VerifyLearnShared();
  std::vector<Metric> EndToEnd();
  std::vector<Metric> PerLayer(double calibration_ms);

  Flags flags_;
  Kind kind_;
  std::string dir_;
  std::string fog_path_;
  Workload workload_;
  std::vector<Sent> setup_sent_;    // every set-up's requests
  std::vector<Sent> window_setup_;  // the set-up of the window's daemon
  std::vector<Sent> window_;        // timed requests, completion order
  std::atomic<int64_t> seq_{0};
  int setups_started_ = 0;
  // Where the clients stand between window segments.
  struct Progress {
    int64_t next[2] = {0, 0};  // each client's next request number
    bool broken[2] = {false, false};
    uint64_t newest = 0;     // learn-shared: newest registered model
    uint64_t last_read = 0;  // learn-shared: the last model read
  } progress_;
  std::vector<std::pair<int64_t, int64_t>> segments_;  // start, end ns
  double window_s_ = 0.0;
  std::vector<double> setup_s_;
  std::vector<double> setup_learn_p50_ms_;  // per set-up with learns
  Message stats_before_;
  Message stats_after_;
  ProcSample proc_before_;
  ProcSample proc_after_;
};

void Run::ComputeSetupReference() {
  if (kind_ == Kind::kLearnShared) return;  // checked after the window
  ReplayConfig config;
  config.journal_dir = dir_ + "/reference";
  ReplayDaemon oracle(config);
  auto ask = [&](const RequestSpec& spec, uint64_t session) {
    return Ask(oracle, BuildRequest(workload_, spec, session, fog_path_));
  };
  for (size_t s = 0; s < workload_.sessions.size(); ++s) {
    SessionInputs& session = workload_.sessions[s];
    RequestSpec load;
    load.op = Op::kLoad;
    const uint64_t sid = IdField(ask(load, 0), "session");
    std::vector<uint64_t> ids;
    for (size_t m = 0; m < session.setup_learns.size(); ++m) {
      RequestSpec learn;
      learn.op = Op::kLearn;
      learn.session = static_cast<int>(s);
      learn.learn = static_cast<int64_t>(m);
      const Message answer = ask(learn, sid);
      session.model_texts.push_back(answer.Get("model"));
      session.train_errors.push_back(answer.Get("training-error"));
      ids.push_back(IdField(answer, "model-id"));
    }
    // Errors only after every learn of the session: computing a type
    // interns it into the session registry, which must not shift the
    // type ids (and so the model text) of a later learn.
    for (uint64_t id : ids) {
      const LearnRecord* record = oracle.FindLearn(sid, id);
      std::vector<std::string> errors;
      for (const Batch& batch : session.batches) {
        // An oracle that failed expects nothing any response can match.
        errors.push_back(record == nullptr
                             ? "oracle failed"
                             : FormatRate(record->hypothesis.Error(
                                   workload_.graph, batch.data)));
      }
      session.eval_errors.push_back(std::move(errors));
    }
  }
}

void Run::Send(Client& client, const RequestSpec& spec, uint64_t session,
               Sent* sent) {
  const Message request = BuildRequest(workload_, spec, session, fog_path_);
  sent->spec = spec;
  sent->session_id = session;
  const int64_t start = NowNs();
  StatusOr<Message> response = client.Call(request);
  sent->done_ns = NowNs();
  sent->latency_ns = sent->done_ns - start;
  sent->seq = seq_.fetch_add(1);
  if (!response.ok()) {
    sent->error = response.status().message();
    return;
  }
  sent->answered = true;
  Check(sent, *response);
}

// Checks a response against the oracle. Learn-shared answers depend on
// the whole learn sequence; they are recorded here and checked after the
// window (VerifyLearnShared).
void Run::Check(Sent* sent, const Message& response) {
  const RequestSpec& spec = sent->spec;
  if (response.Get("status") != folearn::kStatusOk) {
    sent->error = response.Get("status") + ": " + response.Get("error");
    return;
  }
  if (spec.op == Op::kLoad) {
    sent->session_id = IdField(response, "session");
    sent->verified =
        response.Get("order") == std::to_string(workload_.graph.order());
    return;
  }
  sent->model_id = IdField(response, "model-id");
  if (spec.op == Op::kLearn) {
    sent->model_text = response.Get("model");
    sent->error = response.Get("training-error");
  } else {
    sent->error = response.Get("error");
    if (response.Get("examples-seen") !=
        std::to_string(RequestExamples(workload_, spec))) {
      return;
    }
  }
  if (kind_ == Kind::kLearnShared) return;
  const SessionInputs& session = workload_.sessions[spec.session];
  if (spec.op == Op::kLearn) {
    sent->verified = sent->model_text == session.model_texts[spec.learn] &&
                     sent->error == session.train_errors[spec.learn];
  } else {
    sent->verified =
        sent->error == session.eval_errors[spec.model][spec.batch] &&
        (workload_.ship_model_text || sent->model_id == spec.model_id);
  }
}

// Spawns the daemon and brings it to the state the window starts from:
// graph loaded per session, the served models learned, every model's plan
// compiled and evaluator bound by one priming evaluate.
bool Run::Setup(Live* live, std::vector<Sent>* sent, std::string* error) {
  const std::string tag = std::to_string(setups_started_++);
  live->socket = dir_ + "/d" + tag + ".sock";
  const std::string& socket = live->socket;
  std::vector<std::string> args = {"--socket", socket};
  if (kind_ == Kind::kLearnShared) {
    args.insert(args.end(),
                {"--state-dir", dir_ + "/state" + tag, "--max-session-models",
                 std::to_string(workload_.max_session_models),
                 "--dedup-window", std::to_string(workload_.dedup_window)});
  }
  if (!live->daemon.Start(flags_.folearnd, args, socket,
                          dir_ + "/folearnd.log", error)) {
    return false;
  }
  for (int c = 0; c < 2; ++c) {
    StatusOr<Client> client = Client::Connect(socket, 120000);
    if (!client.ok()) {
      *error = client.status().message();
      return false;
    }
    live->clients.push_back(*std::move(client));
  }
  auto send = [&](int client, const RequestSpec& spec, uint64_t session) {
    sent->emplace_back();
    Send(live->clients[client], spec, session, &sent->back());
    return sent->back();
  };
  const int sessions = static_cast<int>(workload_.sessions.size());
  live->model_ids.assign(sessions, {});
  for (int s = 0; s < sessions; ++s) {
    RequestSpec load;
    load.op = Op::kLoad;
    load.client = s;
    load.session = s;
    const Sent& loaded = send(s, load, 0);
    if (!loaded.verified) {
      *error = "load-graph failed: " + loaded.error;
      return false;
    }
    live->sessions.push_back(loaded.session_id);
  }
  for (int s = 0; s < sessions; ++s) {
    const SessionInputs& inputs = workload_.sessions[s];
    for (size_t m = 0; m < inputs.setup_learns.size(); ++m) {
      RequestSpec learn;
      learn.op = Op::kLearn;
      learn.client = s;
      learn.session = s;
      learn.learn = static_cast<int64_t>(m);
      learn.writer = kind_ == Kind::kLearnShared;
      live->model_ids[s].push_back(
          send(s, learn, live->sessions[s]).model_id);
    }
  }
  for (int s = 0; s < sessions; ++s) {
    for (size_t m = 0; m < live->model_ids[s].size(); ++m) {
      RequestSpec prime;
      prime.op = Op::kEvaluate;
      prime.client = kind_ == Kind::kLearnShared ? 1 : s;
      prime.session = s;
      prime.model = static_cast<int>(m);
      prime.model_id = live->model_ids[s][m];
      prime.batch = workload_.sessions[s].prime_batch;
      send(prime.client, prime, live->sessions[s]);
    }
  }
  return true;
}

// Times one set-up and records its requests; `kept` (if any) receives
// them too.
bool Run::TimedSetup(Live* live, std::vector<Sent>* kept) {
  std::vector<Sent> sent;
  std::string error;
  const int64_t start = NowNs();
  const bool ok = Setup(live, &sent, &error);
  setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
  const Percentiles learns = LatencyMs(sent, Op::kLearn);
  if (learns.samples > 0) setup_learn_p50_ms_.push_back(learns.p50);
  setup_sent_.insert(setup_sent_.end(), sent.begin(), sent.end());
  if (!ok) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return false;
  }
  if (kept != nullptr) *kept = std::move(sent);
  return true;
}

// One segment of the timed window: two closed-loop clients, each sending
// its next request only after the previous answer arrives, until
// `duration_ns` pass. They go on where the previous segment stopped.
void Run::Window(Live* live, int64_t duration_ns) {
  const int64_t start = NowNs();
  const int64_t deadline = start + duration_ns;
  const auto deadline_time = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(duration_ns);
  // learn-shared: the newest registered model, published by the writer.
  std::mutex newest_mu;
  std::condition_variable newest_cv;
  uint64_t& newest = progress_.newest;
  if (newest == 0) newest = live->model_ids[0].back();
  bool writer_done = false;
  std::vector<std::vector<Sent>> per_client(2);
  auto client_loop = [&](int c) {
    Client& client = live->clients[c];
    std::vector<Sent>& out = per_client[c];
    uint64_t& last_read = progress_.last_read;
    for (int64_t& i = progress_.next[c];
         !progress_.broken[c] && NowNs() < deadline; ++i) {
      RequestSpec spec;
      spec.client = c;
      if (kind_ == Kind::kLearnShared) {
        spec.session = 0;
        if (c == 0) {
          spec.op = Op::kLearn;
          spec.writer = true;
          spec.learn = i + 1;  // learn 0 ran in set-up
        } else {
          // The reader evaluates each new model once. It waits for the
          // writer to publish one, then lets kReaderDelay pass so that the
          // writer's next learn already holds the session lock: every read
          // then waits out one learn, instead of sometimes slipping into
          // the gap between two, which would split its latency in two modes.
          {
            std::unique_lock<std::mutex> lock(newest_mu);
            newest_cv.wait_until(lock, deadline_time, [&] {
              return newest > last_read || writer_done;
            });
            if (newest <= last_read) break;
            last_read = newest;
          }
          std::this_thread::sleep_for(kReaderDelay);
          spec.op = Op::kEvaluate;
          spec.model_id = last_read;
          spec.batch = static_cast<int>(i % workload_.sessions[0].prime_batch);
        }
      } else {
        const int64_t models =
            static_cast<int64_t>(live->model_ids[c].size());
        const int64_t batches = workload_.sessions[c].prime_batch;
        spec.op = Op::kEvaluate;
        spec.session = c;
        spec.model = static_cast<int>(i % models);
        spec.model_id = live->model_ids[c][spec.model];
        spec.batch = static_cast<int>((i / models) % batches);
      }
      out.emplace_back();
      Send(client, spec, live->sessions[spec.session], &out.back());
      // A broken connection stays broken: the request counts as failed
      // and this client stops for the rest of the run.
      if (!out.back().answered) {
        progress_.broken[c] = true;
        break;
      }
      if (kind_ == Kind::kLearnShared && c == 0) {
        // The highest id is the newest registration. A learn whose model
        // text matches a live handle answers that older id, which journal
        // compaction may drop at the next registration.
        std::lock_guard<std::mutex> lock(newest_mu);
        newest = std::max(newest, out.back().model_id);
        newest_cv.notify_all();
      }
    }
    if (c == 0) {
      std::lock_guard<std::mutex> lock(newest_mu);
      writer_done = true;
      newest_cv.notify_all();
    }
  };
  std::thread second(client_loop, 1);
  client_loop(0);
  second.join();
  int64_t end = start;
  std::vector<Sent> segment;
  for (auto& sent : per_client) {
    for (Sent& s : sent) {
      end = std::max(end, s.done_ns);
      segment.push_back(std::move(s));
    }
  }
  std::sort(segment.begin(), segment.end(),
            [](const Sent& a, const Sent& b) { return a.seq < b.seq; });
  std::move(segment.begin(), segment.end(), std::back_inserter(window_));
  segments_.emplace_back(start, end);
  window_s_ += static_cast<double>(end - start) / 1e9;
}

// The answered requests of `op`, by the block of the window they
// completed in.
std::vector<std::vector<const Sent*>> Run::Blocks(Op op) const {
  std::vector<std::vector<const Sent*>> blocks;
  for (const auto& [start, end] : segments_) {
    for (int b = 0; b < kBlocksPerSegment; ++b) {
      const int64_t from = start + (end - start) * b / kBlocksPerSegment;
      const int64_t to = start + (end - start) * (b + 1) / kBlocksPerSegment;
      std::vector<const Sent*>& block = blocks.emplace_back();
      for (const Sent& s : window_) {
        if (s.spec.op == op && s.answered && s.done_ns >= from &&
            s.done_ns < to) {
          block.push_back(&s);
        }
      }
    }
  }
  return blocks;
}

// Completed primary-op requests per second: the median, over the window's
// blocks, of each block's rate between its first and last completion. A
// burst of host noise in a few blocks then does not move it.
double Run::Throughput(Op primary) const {
  std::vector<double> rates;
  for (const std::vector<const Sent*>& block : Blocks(primary)) {
    if (block.size() < 2) continue;
    int64_t first = block.front()->done_ns;
    int64_t last = first;
    for (const Sent* s : block) {
      first = std::min(first, s->done_ns);
      last = std::max(last, s->done_ns);
    }
    if (last > first) {
      rates.push_back(static_cast<double>(block.size() - 1) * 1e9 /
                      static_cast<double>(last - first));
    }
  }
  if (rates.empty()) {
    double completed = 0;
    for (const Sent& s : window_) {
      if (s.spec.op == primary && s.answered) ++completed;
    }
    return completed / window_s_;
  }
  return Median(rates);
}

// The median latency of each block of the window, averaged over the
// blocks. The host this was built on flips between a fast and a slow state
// (about 35% apart) every second or so. The median of the pooled run then
// jumps from one state's median to the other's as their mix moves around
// one half, which spread ten runs by up to 0.29 of their median; this
// average moves smoothly with the mix instead.
double Run::BlockMedianMs(Op op) const {
  std::vector<double> medians;
  for (const std::vector<const Sent*>& block : Blocks(op)) {
    std::vector<double> ms;
    for (const Sent* s : block) {
      ms.push_back(static_cast<double>(s->latency_ns) / 1e6);
    }
    if (!ms.empty()) medians.push_back(Median(ms));
  }
  double sum = 0;
  for (double m : medians) sum += m;
  return medians.empty() ? 0.0 : sum / static_cast<double>(medians.size());
}

// learn-shared oracle: replays the writer's learn sequence in-process
// against one shared TypeRegistry (the daemon's session state, compaction
// included), then checks every learn byte for byte and every reader
// evaluate against TypeSetHypothesis::Error of the model it named.
void Run::VerifyLearnShared() {
  ReplayConfig config;
  config.journal_dir = dir_ + "/oracle";
  config.max_session_models = workload_.max_session_models;
  config.dedup_window = workload_.dedup_window;
  ReplayDaemon oracle(config);
  RequestSpec load;
  load.op = Op::kLoad;
  const uint64_t sid =
      IdField(Ask(oracle, BuildRequest(workload_, load, 0, fog_path_)),
              "session");
  int64_t last_learn = 0;
  for (const Sent& s : window_) {
    if (s.spec.op == Op::kLearn) {
      last_learn = std::max(last_learn, s.spec.learn);
    }
  }
  struct Expected {
    std::string text;
    std::string training_error;
    uint64_t model_id = 0;
  };
  std::vector<Expected> expected;
  for (int64_t index = 0; index <= last_learn; ++index) {
    RequestSpec learn;
    learn.op = Op::kLearn;
    learn.writer = true;
    learn.learn = index;
    const Message answer =
        Ask(oracle, BuildRequest(workload_, learn, sid, fog_path_));
    expected.push_back({answer.Get("model"), answer.Get("training-error"),
                        IdField(answer, "model-id")});
  }
  std::map<std::pair<uint64_t, int>, std::string> errors;
  auto check = [&](Sent& s) {
    if (!s.answered || s.spec.op == Op::kLoad) return;
    if (s.spec.op == Op::kLearn) {
      const Expected& want = expected[s.spec.learn];
      s.verified = !want.text.empty() && s.model_text == want.text &&
                   s.error == want.training_error &&
                   s.model_id == want.model_id;
      return;
    }
    const LearnRecord* record = oracle.FindLearn(sid, s.spec.model_id);
    if (record == nullptr) return;
    auto key = std::make_pair(s.spec.model_id, s.spec.batch);
    auto it = errors.find(key);
    if (it == errors.end()) {
      it = errors
               .emplace(key, FormatRate(record->hypothesis.Error(
                                 workload_.graph,
                                 workload_.sessions[0]
                                     .batches[s.spec.batch]
                                     .data)))
               .first;
    }
    s.verified = s.error == it->second && s.model_id == s.spec.model_id;
  };
  for (Sent& s : setup_sent_) check(s);
  for (Sent& s : window_) check(s);
}

std::vector<Metric> Run::EndToEnd() {
  const Op primary =
      kind_ == Kind::kLearnShared ? Op::kLearn : Op::kEvaluate;
  double completed_primary = 0;
  for (const Sent& s : window_) {
    if (s.spec.op == primary && s.answered) ++completed_primary;
  }
  // learn-shared times the writer's learns; the evaluate workloads learn
  // only in set-up, so there it is each set-up's learn median, averaged
  // over the set-ups (spread over the run like the window's blocks).
  double learn_p50 = 0;
  if (kind_ == Kind::kLearnShared) {
    learn_p50 = BlockMedianMs(Op::kLearn);
  } else {
    for (double m : setup_learn_p50_ms_) learn_p50 += m;
    learn_p50 /= std::max<double>(1.0, setup_learn_p50_ms_.size());
  }
  int64_t attempted = 0;
  int64_t verified = 0;
  for (const auto* list : {&setup_sent_, &window_}) {
    for (const Sent& s : *list) {
      ++attempted;
      if (s.verified) ++verified;
    }
  }
  return {
      {"throughput_rps", Throughput(primary), "req/s"},
      {"evaluate_p50_ms", BlockMedianMs(Op::kEvaluate), "ms"},
      {"evaluate_p90_ms", LatencyMs(window_, Op::kEvaluate).p90, "ms"},
      {"learn_p50_ms", learn_p50, "ms"},
      {"ok_ratio",
       static_cast<double>(verified) / static_cast<double>(attempted),
       "ratio"},
      {"daemon_cpu_ms_per_request",
       (proc_after_.cpu_ms - proc_before_.cpu_ms) / completed_primary, "ms"},
      {"peak_rss_mb", proc_after_.peak_rss_mib, "MiB"},
      {"setup_s", Median(setup_s_), "s"},
  };
}

// One replayed request: its service time with spans on and off.
struct Replayed {
  bool in_window = false;
  Op op = Op::kEvaluate;
  int64_t on_ns = 0;
  int64_t off_ns = 0;
  int64_t frame_bytes = 0;
  int64_t examples = 0;
};

std::vector<Metric> Run::PerLayer(double calibration_ms) {
  std::vector<const Sent*> sequence;
  for (const Sent& s : window_setup_) sequence.push_back(&s);
  const size_t setup_count = sequence.size();
  for (const Sent& s : window_) sequence.push_back(&s);

  // Two replay daemons, one traced and one not, take the requests in
  // chunks of kReplayChunk, in turn, so both see the same host drift and
  // the difference is the tracing overhead. Taking turns at every request
  // instead had each daemon evict the other's caches, which slowed both
  // past the daemon they replay. The window part stops after
  // kReplayBudgetNs of traced service time.
  auto make_daemon = [&](const std::string& tag) {
    ReplayConfig config;
    config.journal_dir = dir_ + "/replay-" + tag;
    config.journal = kind_ == Kind::kLearnShared;
    config.max_session_models = workload_.max_session_models;
    if (workload_.dedup_window > 0) {
      config.dedup_window = workload_.dedup_window;
    }
    return std::make_unique<ReplayDaemon>(config);
  };
  std::unique_ptr<ReplayDaemon> daemon = make_daemon("on");
  std::unique_ptr<ReplayDaemon> untraced_daemon = make_daemon("off");
  Tracer traced(true);
  Tracer untraced(false);
  std::vector<Replayed> replayed;
  ReplayDaemon::Counts counts;
  int counted = 0;
  int64_t window_on_ns = 0;
  for (size_t begin = 0;
       begin < sequence.size() && window_on_ns < kReplayBudgetNs;
       begin += kReplayChunk) {
    const size_t end = std::min(sequence.size(), begin + kReplayChunk);
    std::vector<std::string> payloads;
    for (size_t i = begin; i < end; ++i) {
      const Sent& sent = *sequence[i];
      payloads.push_back(folearn::EncodeMessage(
          BuildRequest(workload_, sent.spec, sent.session_id, fog_path_)));
      Replayed r;
      r.in_window = i >= setup_count;
      r.op = sent.spec.op;
      r.frame_bytes = static_cast<int64_t>(payloads.back().size());
      r.examples = RequestExamples(workload_, sent.spec);
      replayed.push_back(r);
    }
    auto replay_chunk = [&](bool on) {
      for (size_t i = begin; i < end; ++i) {
        traced.set_request(static_cast<int64_t>(i));
        const int64_t start = NowNs();
        (on ? *daemon : *untraced_daemon)
            .Handle(payloads[i - begin], on ? traced : untraced);
        (on ? replayed[i].on_ns : replayed[i].off_ns) = NowNs() - start;
      }
    };
    // Alternating which goes first cancels what the second run of the
    // same payloads gains from warm caches.
    const bool traced_first = (begin / kReplayChunk) % 2 == 0;
    replay_chunk(traced_first);
    replay_chunk(!traced_first);
    for (size_t i = begin; i < end; ++i) {
      const Replayed& r = replayed[i];
      if (!r.in_window) continue;
      window_on_ns += r.on_ns;
      // The VM's work counts: a counting-lane rerun of the first few
      // window evaluates, outside every span.
      if (r.op == Op::kEvaluate && counted < 8) {
        ++counted;
        const ReplayDaemon::Counts c =
            daemon->CountEvaluate(payloads[i - begin]);
        counts.examples += c.examples;
        counts.quantifier_branches += c.quantifier_branches;
        counts.atom_evaluations += c.atom_evaluations;
        counts.vm_dispatches += c.vm_dispatches;
      }
    }
  }

  // Self time: a span's duration minus its children's.
  const std::vector<Span>& spans = traced.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> all_ns;
  std::map<std::string, std::vector<double>> window_ns;
  std::map<std::string, double> self_by_layer;
  double window_root_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double dur = static_cast<double>(span.end_ns - span.start_ns);
    const bool in_window = replayed[span.request].in_window;
    all_ns[span.name].push_back(dur);
    if (!in_window) continue;
    window_ns[span.name].push_back(dur);
    const std::string name = span.name;
    self_by_layer[name.substr(0, name.find('.'))] +=
        dur - static_cast<double>(child_ns[i]);
    if (span.parent < 0) window_root_ns += dur;
  }
  auto median_of = [&](const std::map<std::string, std::vector<double>>& by,
                       const char* name, double scale) {
    auto it = by.find(name);
    return it == by.end() ? 0.0 : Median(it->second) / scale;
  };
  auto sum_of = [&](const char* name) {
    double total = 0;
    for (double d : window_ns[name]) total += d;
    return total;
  };

  double window_examples = 0;
  double window_frame = 0;
  double window_requests = 0;
  double on_total = 0;
  double off_total = 0;
  std::vector<double> evaluate_service_ms;
  for (const Replayed& r : replayed) {
    if (!r.in_window) continue;
    ++window_requests;
    on_total += static_cast<double>(r.on_ns);
    off_total += static_cast<double>(r.off_ns);
    window_frame += static_cast<double>(r.frame_bytes);
    if (r.op == Op::kEvaluate) {
      window_examples += static_cast<double>(r.examples);
      evaluate_service_ms.push_back(static_cast<double>(r.off_ns) / 1e6);
    }
  }

  // Calls the request path skips on this workload are probed on its data.
  const uint64_t first_session = window_setup_.front().session_id;
  double parse_model_us = median_of(window_ns, "learn.parse_model", 1e3);
  if (parse_model_us == 0.0) {
    parse_model_us = daemon->ProbeParseModelUs(first_session);
  }
  double journal_save_ms = median_of(window_ns, "server.journal_save", 1e6);
  int64_t journal_bytes = daemon->JournalSize();
  if (journal_save_ms == 0.0) {
    journal_save_ms =
        daemon->ProbeJournalSaveMs(first_session, &journal_bytes);
  }

  double model_bytes = 0;
  double candidates = 0;
  double distinct = 0;
  double growth = 0;
  for (const LearnRecord& learn : daemon->learns()) {
    model_bytes += static_cast<double>(learn.model_text.size());
    candidates += static_cast<double>(learn.candidates);
    distinct += static_cast<double>(learn.distinct_types);
    growth += static_cast<double>(learn.registry_growth);
  }
  const double learns = static_cast<double>(daemon->learns().size());
  const double lookups = static_cast<double>(all_ns["mc.plan_lookup"].size());
  const double compiles = static_cast<double>(all_ns["mc.compile"].size());
  const double per_example =
      std::max(1.0, static_cast<double>(counts.examples));

  // The replay must not be slower than the wire it replays: the wire
  // adds transport, dispatch and lock waits on top of the same work.
  const Percentiles wire_evaluate = LatencyMs(window_, Op::kEvaluate);
  for (Op op : {Op::kEvaluate, Op::kLearn}) {
    const Percentiles wire = LatencyMs(window_, op);
    if (wire.samples == 0) continue;  // not timed on this workload
    std::vector<double> replayed_ms;
    for (const Replayed& r : replayed) {
      if (r.in_window && r.op == op) {
        replayed_ms.push_back(static_cast<double>(r.off_ns) / 1e6);
      }
    }
    const double replayed = Median(replayed_ms);
    std::printf("check: %s replayed p50 %.3f ms <= wire p50 %.3f ms: %s\n",
                op == Op::kLearn ? "learn" : "evaluate", replayed, wire.p50,
                replayed <= wire.p50 ? "ok" : "VIOLATED");
  }

  // Spans stay in memory during the replay and are written out here.
  std::filesystem::create_directories(".bench_run");
  const std::string spans_path = ".bench_run/spans-" + flags_.workload +
                                 "-seed" + std::to_string(flags_.seed) +
                                 ".jsonl";
  if (FILE* out = std::fopen(spans_path.c_str(), "w")) {
    for (const Span& span : spans) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%lld}\n",
                   span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<long long>(span.request));
    }
    std::fclose(out);
    std::printf("spans: %zu written to %s\n", spans.size(),
                spans_path.c_str());
  }

  auto share = [&](const char* layer) {
    return window_root_ns == 0 ? 0.0
                               : 100.0 * self_by_layer[layer] / window_root_ns;
  };
  return {
      {"mc.vm_exec_us_per_example",
       window_examples == 0 ? 0.0
                            : sum_of("mc.vm_exec") / 1e3 / window_examples,
       "us"},
      {"mc.quantifier_branches_per_example",
       static_cast<double>(counts.quantifier_branches) / per_example, "count"},
      {"mc.atom_evaluations_per_example",
       static_cast<double>(counts.atom_evaluations) / per_example, "count"},
      {"mc.vm_dispatches_per_example",
       static_cast<double>(counts.vm_dispatches) / per_example, "count"},
      {"mc.vm_bind_us", median_of(all_ns, "mc.vm_bind", 1e3), "us"},
      {"mc.plan_lookup_us", median_of(window_ns, "mc.plan_lookup", 1e3), "us"},
      {"mc.compile_ms", median_of(all_ns, "mc.compile", 1e6), "ms"},
      {"mc.plan_hit_ratio", lookups / std::max(1.0, lookups + compiles),
       "ratio"},
      {"mc.share_pct", share("mc"), "%"},
      {"learn.parse_model_us", parse_model_us, "us"},
      {"learn.parse_data_us", median_of(window_ns, "learn.parse_data", 1e3),
       "us"},
      {"learn.model_kib", model_bytes / std::max(1.0, learns) / 1024.0, "KiB"},
      {"learn.erm_ms", median_of(all_ns, "learn.erm", 1e6), "ms"},
      {"learn.candidates", candidates / std::max(1.0, learns), "count"},
      {"learn.explicit_ms", median_of(all_ns, "learn.explicit", 1e6), "ms"},
      {"learn.share_pct", share("learn"), "%"},
      {"types.distinct", distinct / std::max(1.0, learns), "count"},
      {"types.registry_growth", growth / std::max(1.0, learns), "count"},
      {"graph.load_ms", median_of(all_ns, "graph.load", 1e6), "ms"},
      {"graph.ball_hit_ratio",
       static_cast<double>(daemon->ball_hits()) /
           std::max<double>(1.0, static_cast<double>(daemon->ball_lookups())),
       "ratio"},
      {"server.decode_us", median_of(window_ns, "server.decode", 1e3), "us"},
      {"server.encode_us", median_of(window_ns, "server.encode", 1e3), "us"},
      {"server.frame_kib",
       window_frame / std::max(1.0, window_requests) / 1024.0, "KiB"},
      {"server.journal_save_ms", journal_save_ms, "ms"},
      {"server.journal_kib", static_cast<double>(journal_bytes) / 1024.0,
       "KiB"},
      {"server.unattributed_ms",
       wire_evaluate.p50 - Median(evaluate_service_ms), "ms"},
      {"server.share_pct", share("server"), "%"},
      {"server.plan_hits", StatDelta(stats_before_, stats_after_, "plan-hits"),
       "count"},
      {"server.plan_misses",
       StatDelta(stats_before_, stats_after_, "plan-misses"), "count"},
      {"server.journal_writes",
       StatDelta(stats_before_, stats_after_, "journal-writes"), "count"},
      {"server.models_registered",
       StatDelta(stats_before_, stats_after_, "models-registered"), "count"},
      {"server.shed", StatDelta(stats_before_, stats_after_, "shed"), "count"},
      {"server.errors", StatDelta(stats_before_, stats_after_, "errors"),
       "count"},
      {"trace.overhead_pct",
       off_total == 0 ? 0.0 : 100.0 * (on_total - off_total) / off_total, "%"},
      {"host.calib_ms", calibration_ms, "ms"},
  };
}

int Run::Main() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir_.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const double calibration_before = CalibrationMs();

  // Inputs and the evaluate oracle: off the clock.
  workload_ = MakeWorkload(kind_, flags_.seed);
  if (workload_.graph_as_fog) {
    fog_path_ = dir_ + "/graph.fog";
    folearn::Status written =
        folearn::WriteFogFile(fog_path_, workload_.graph);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.message().c_str());
      return 2;
    }
  }
  ComputeSetupReference();

  // The window's daemon, then the window segments, bracketed by
  // daemon-side accounting, each followed by a throw-away set-up.
  auto live = std::make_unique<Live>();
  if (!TimedSetup(live.get(), &window_setup_)) return 2;
  StatusOr<Client> control = Client::Connect(live->socket, 60000);
  if (!control.ok()) {
    std::fprintf(stderr, "%s\n", control.status().message().c_str());
    return 2;
  }
  stats_before_ = StatsOf(*control);
  ReadProc(live->daemon.pid(), &proc_before_);
  const int64_t segment_ns =
      static_cast<int64_t>(flags_.seconds) * 1'000'000'000 / kSegments;
  for (int k = 0; k < kSegments; ++k) {
    Window(live.get(), segment_ns);
    if (k + 1 == kSegments) {
      ReadProc(live->daemon.pid(), &proc_after_);
      stats_after_ = StatsOf(*control);
    }
    Live spare;
    if (!TimedSetup(&spare, nullptr)) return 2;
    spare.clients.clear();
    spare.daemon.Stop();
  }
  live->clients.clear();
  if (!live->daemon.Stop()) {
    std::fprintf(stderr, "folearnd did not shut down cleanly\n");
  }
  if (kind_ == Kind::kLearnShared) VerifyLearnShared();

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto* list : {&setup_sent_, &window_}) {
    for (const Sent& s : *list) {
      ++attempted;
      if (s.verified) continue;
      if (++failed <= 5) {
        std::fprintf(stderr,
                     "unverified %s (client %d, batch %d, model-id %llu): "
                     "%s\n",
                     s.spec.op == Op::kLearn      ? "learn"
                     : s.spec.op == Op::kEvaluate ? "evaluate"
                                                  : "load-graph",
                     s.spec.client, s.spec.batch,
                     static_cast<unsigned long long>(s.model_id),
                     s.error.c_str());
      }
    }
  }

  std::vector<Metric> metrics = EndToEnd();
  const Percentiles evaluate = LatencyMs(window_, Op::kEvaluate);
  const size_t p90_rank = static_cast<size_t>(
      std::ceil(0.9 * static_cast<double>(evaluate.samples)));
  std::printf("workload %s seed %llu: %lld requests in %.3f s window, "
              "%zu evaluate samples (%zu beyond p90)\n",
              flags_.workload.c_str(),
              static_cast<unsigned long long>(flags_.seed),
              static_cast<long long>(window_.size()), window_s_,
              evaluate.samples, evaluate.samples - p90_rank);
  std::printf("set-up times s:");
  for (double s : setup_s_) std::printf(" %.4f", s);
  std::printf("\n");
  for (Op op : {Op::kEvaluate, Op::kLearn}) {
    std::vector<double> ms;
    for (const Sent& s : window_) {
      if (s.spec.op == op) {
        ms.push_back(static_cast<double>(s.latency_ns) / 1e6);
      }
    }
    if (ms.empty()) continue;
    std::printf("%s wire latency ms: p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  "
                "p90 %.3f  p99 %.3f\n",
                op == Op::kLearn ? "learn" : "evaluate", Percentile(ms, 0.1),
                Percentile(ms, 0.25), Percentile(ms, 0.5), Percentile(ms, 0.75),
                Percentile(ms, 0.9), Percentile(ms, 0.99));
  }
  if (flags_.trace == 1) {
    metrics = PerLayer((calibration_before + CalibrationMs()) / 2.0);
  }
  const double calibration_after = CalibrationMs();
  std::printf("host calibration loop: %.3f ms before, %.3f ms after "
              "(%+.1f%%; not a gated metric)\n",
              calibration_before, calibration_after,
              100.0 * (calibration_after - calibration_before) /
                  calibration_before);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::filesystem::remove_all(dir_, ec);
  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: folearnd_loadgen --workload NAME --seed N "
                 "--seconds S --trace 0|1 --folearnd PATH\n");
    return 64;
  }
  const std::optional<perfbench::Kind> kind =
      perfbench::ParseKind(flags.workload);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 64;
  }
  perfbench::Run run(std::move(flags), *kind);
  return run.Main();
}
