#ifndef FOLEARN_LEARN_SEARCH_STATE_H_
#define FOLEARN_LEARN_SEARCH_STATE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "util/checkpoint.h"
#include "util/governor.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace folearn {

// Checkpoint/resume for the library's search loops.
//
// Every anytime scan in this code base — TypeMajoritySweep (the parameter
// scan of BruteForceErm, SublinearErm and the nd-learner's final phase)
// and EnumerationErm's tuple×formula grid — is an argmin over a fixed
// index range whose interruption points are already deterministic (the
// governor's work budget and fault injector). That makes the entire
// search state a tiny *frontier*: the next index to evaluate, the best
// (error, index) so far, and the governor ledger. `RunResumableScan`
// factors the evaluate-then-settle scheme those two scans share, and —
// when a `SearchCheckpointer` is attached — persists the
// frontier after every segment of candidates, so a killed process can be
// restarted with `--resume` and produce the byte-identical model, training
// error, and governor diagnostics of an uninterrupted run, for any thread
// count. The mechanism that makes this cheap is the same one that makes
// the parallel sweeps deterministic: the winner is re-evaluated from
// scratch on the caller's registry, so no registry shard, ball cache, or
// memo table ever needs to be serialised — only the frontier does.

// The complete resumable state of one search scan. Serialised as a short
// text payload inside the checksummed checkpoint envelope
// (util/checkpoint.h).
struct SearchFrontier {
  // Which search loop wrote this frontier ("brute", "enumeration",
  // "sublinear", "nd"). Resuming with a different learner is refused.
  std::string learner;
  // FNV-1a 64 fingerprint of the problem instance (inputs that determine
  // the scan: graph bytes, training data, learner parameters). Guards
  // against resuming against different inputs. Thread count, evaluation
  // mode, and resource limits are deliberately NOT part of the
  // fingerprint: they do not change the scan's semantics.
  uint64_t fingerprint = 0;
  // Next candidate index to evaluate; every index below it has been
  // evaluated and charged to the governor ledger below.
  int64_t cursor = 0;
  // Lexicographic argmin of (error, index) over [0, cursor); −1 if none.
  int64_t best_index = -1;
  // Its training error. Serialised as exact IEEE-754 bits, so a resumed
  // comparison is bit-identical to the uninterrupted one.
  double best_error = std::numeric_limits<double>::infinity();
  // Candidates counted in the `tried` diagnostic so far.
  int64_t tried = 0;
  // Governor ledger at the save point (ResourceGovernor::work_used /
  // checkpoints_passed), restored via RestoreLedger so budget and injector
  // trips land at the same cut points as an uninterrupted run.
  int64_t governor_work = 0;
  int64_t governor_checkpoints = 0;
};

// Frontier ⇄ checkpoint-payload text (one "key value" pair per line).
std::string SerializeFrontier(const SearchFrontier& frontier);
// Rejects unknown/missing/duplicate fields and malformed values with a
// line-level diagnostic; never aborts on foreign bytes.
StatusOr<SearchFrontier> ParseFrontier(std::string_view payload);

// Envelope-wrapped file forms (WriteCheckpointFile/ReadCheckpointFile).
Status SaveFrontier(const std::string& path, const SearchFrontier& frontier);
StatusOr<SearchFrontier> LoadFrontier(const std::string& path);

// Refuses a frontier recorded by a different learner or for a different
// problem instance (InvalidArgument with both values in the message).
Status CheckFrontierCompatible(const SearchFrontier& frontier,
                               std::string_view learner,
                               uint64_t fingerprint);

// Owns the checkpoint file of one run: decides when a save is due
// (`every_ms` ≤ 0 ⇒ after every segment) and writes atomically. A failed
// write warns once on stderr and disables further saves — checkpointing is
// an aid, never a reason to kill a healthy run. For the crash-loop tests,
// `crash_after_saves` = k kills the process (exit kCrashExitCode) right
// after the k-th successful save, modelling a power cut at the worst
// moment: state on disk, result not yet reported.
class SearchCheckpointer {
 public:
  explicit SearchCheckpointer(std::string path, double every_ms = 0)
      : path_(path), every_ms_(every_ms) {}

  void set_crash_after_saves(int64_t k) { crash_after_saves_ = k; }

  bool Due() const {
    return !disabled_ &&
           (every_ms_ <= 0 || timer_.ElapsedMillis() >= every_ms_);
  }

  // Persists `frontier` (atomic replace) and restarts the interval timer.
  void Save(const SearchFrontier& frontier);

  const std::string& path() const { return path_; }
  int64_t saves() const { return saves_; }

 private:
  std::string path_;
  double every_ms_;
  Stopwatch timer_;
  int64_t saves_ = 0;
  int64_t crash_after_saves_ = -1;
  bool disabled_ = false;
};

// Checkpoint/resume hooks threaded through the learner option structs.
// Default-constructed = no checkpointing, no resume — the learners then
// behave exactly as before this subsystem existed.
struct ScanHooks {
  SearchCheckpointer* checkpointer = nullptr;  // save frontier when due
  const SearchFrontier* resume = nullptr;      // continue from this state
  // Problem-instance fingerprint stamped into saved frontiers (the CLI
  // hashes its input files and parameters; library tests pick any value).
  uint64_t fingerprint = 0;
};

// One resumable argmin scan. The charging model covers every search
// loop: evaluating candidate i costs `unit` governor units, except that
// the very first candidate of a fresh scan may be `first_item_discount`
// units cheaper (the nd-learner's final phase runs its first candidate
// without a leading outer checkpoint; every other loop has discount 0).
struct ScanSpec {
  int64_t n_items = 0;  // full candidate range [0, n_items)
  int64_t unit = 1;     // governor units per candidate
  int64_t first_item_discount = 0;  // 0 or 1; see above
  bool early_stop = true;  // stop at the first zero-error candidate
  int threads = 1;         // resolved worker count (EffectiveThreads)
  int64_t chunk_size = 16;
  ResourceGovernor* governor = nullptr;     // nullptr = ungoverned
  SearchCheckpointer* checkpointer = nullptr;  // nullptr = no saves
  const SearchFrontier* resume = nullptr;      // nullptr = fresh scan
  // Stamped into saved frontiers; a `resume` frontier must match (the
  // public loaders validate via CheckFrontierCompatible; the scan itself
  // treats a mismatch as a caller bug).
  std::string learner;
  uint64_t fingerprint = 0;
  // Candidates per checkpoint segment when a checkpointer is attached
  // (without one the whole range is a single segment, exactly the PR 3
  // sweep). Segment charges are additive, so the governor ledger after any
  // prefix of segments equals the uninterrupted ledger at that cursor.
  int64_t stride = 64;
};

struct ScanOutcome {
  // Lexicographic argmin of (error, index) over everything evaluated,
  // including the resumed prefix; −1 if nothing completed.
  int64_t winner = -1;
  double best_error = std::numeric_limits<double>::infinity();
  // Sequential-equivalent `tried` diagnostic (counts the partial candidate
  // a tripping sequential loop would have started).
  int64_t tried = 0;
};

// Runs the scan: fixes the evaluable range from the governor's
// deterministic allowance, sweeps it in segments (ParallelSweep), merges
// best-so-far across segments and the resumed prefix, charges the
// sequential-equivalent units after each segment, and saves the frontier
// whenever the checkpointer says a save is due. `eval(index, worker)`
// returns (error, hit) and must be safe to call concurrently (mutable
// scratch per worker). On resume the governor ledger is primed via
// RestoreLedger before anything is charged. An interrupted scan latches
// the trip with one trailing unit (the failing checkpoint of the
// sequential loop), so `winner` = −1 on a non-empty range leaves the
// governor tripped.
ScanOutcome RunResumableScan(
    const ScanSpec& spec,
    const std::function<std::pair<double, bool>(int64_t, int)>& eval);

}  // namespace folearn

#endif  // FOLEARN_LEARN_SEARCH_STATE_H_
