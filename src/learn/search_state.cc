#include "learn/search_state.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/parallel.h"
#include "util/strings.h"

namespace folearn {

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// ParseInt64 within the 18 digits a frontier field has always been
// limited to.
bool ParseFrontierInt(std::string_view text, int64_t* value) {
  const size_t digits = text.size() - (text.starts_with('-') ? 1 : 0);
  return digits <= 18 && ParseInt64(text, value);
}

Status FieldError(int line, const std::string& detail) {
  return DataLossError("frontier line " + std::to_string(line) + ": " +
                       detail);
}

}  // namespace

std::string SerializeFrontier(const SearchFrontier& frontier) {
  std::string out;
  out += "learner " + frontier.learner + '\n';
  out += "fingerprint " + FormatHexUint64(frontier.fingerprint) + '\n';
  out += "cursor " + std::to_string(frontier.cursor) + '\n';
  out += "best_index " + std::to_string(frontier.best_index) + '\n';
  out += "best_error_bits " +
         FormatHexUint64(DoubleBits(frontier.best_error)) + '\n';
  out += "tried " + std::to_string(frontier.tried) + '\n';
  out += "governor_work " + std::to_string(frontier.governor_work) + '\n';
  out +=
      "governor_checkpoints " + std::to_string(frontier.governor_checkpoints) +
      '\n';
  return out;
}

StatusOr<SearchFrontier> ParseFrontier(std::string_view payload) {
  // Fields in fixed order, one per line; anything else is corrupt.
  std::vector<std::string> lines = Split(payload, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  constexpr const char* kFields[] = {
      "learner",          "fingerprint",   "cursor",
      "best_index",       "best_error_bits", "tried",
      "governor_work",    "governor_checkpoints"};
  constexpr int kNumFields = 8;
  if (static_cast<int>(lines.size()) != kNumFields) {
    return DataLossError("frontier payload has " +
                         std::to_string(lines.size()) + " lines, expected " +
                         std::to_string(kNumFields));
  }
  SearchFrontier frontier;
  for (int i = 0; i < kNumFields; ++i) {
    const std::string& line = lines[i];
    const std::string prefix = std::string(kFields[i]) + ' ';
    if (line.substr(0, prefix.size()) != prefix) {
      return FieldError(i + 1, "expected '" + std::string(kFields[i]) +
                                   " <value>', got '" + line + "'");
    }
    const std::string value = line.substr(prefix.size());
    bool parsed = true;
    switch (i) {
      case 0:
        frontier.learner = value;
        parsed = !value.empty() && value.find(' ') == std::string::npos;
        break;
      case 1:
        parsed = ParseHexUint64(value, &frontier.fingerprint);
        break;
      case 2:
        parsed = ParseFrontierInt(value, &frontier.cursor) &&
                 frontier.cursor >= 0;
        break;
      case 3:
        parsed = ParseFrontierInt(value, &frontier.best_index) &&
                 frontier.best_index >= -1;
        break;
      case 4: {
        uint64_t bits = 0;
        parsed = ParseHexUint64(value, &bits);
        frontier.best_error = DoubleFromBits(bits);
        break;
      }
      case 5:
        parsed =
            ParseFrontierInt(value, &frontier.tried) && frontier.tried >= 0;
        break;
      case 6:
        parsed = ParseFrontierInt(value, &frontier.governor_work) &&
                 frontier.governor_work >= 0;
        break;
      case 7:
        parsed = ParseFrontierInt(value, &frontier.governor_checkpoints) &&
                 frontier.governor_checkpoints >= 0;
        break;
    }
    if (!parsed) {
      return FieldError(i + 1, "malformed " + std::string(kFields[i]) +
                                   " value '" + value + "'");
    }
  }
  if (frontier.best_index >= frontier.cursor) {
    return DataLossError("frontier best_index " +
                         std::to_string(frontier.best_index) +
                         " not below cursor " +
                         std::to_string(frontier.cursor));
  }
  return frontier;
}

Status SaveFrontier(const std::string& path, const SearchFrontier& frontier) {
  return WriteCheckpointFile(path, SerializeFrontier(frontier));
}

StatusOr<SearchFrontier> LoadFrontier(const std::string& path) {
  StatusOr<std::string> payload = ReadCheckpointFile(path);
  if (!payload.ok()) return payload.status();
  StatusOr<SearchFrontier> frontier = ParseFrontier(*payload);
  if (!frontier.ok()) {
    return Status(frontier.status().code(),
                  path + ": " + frontier.status().message());
  }
  return frontier;
}

Status CheckFrontierCompatible(const SearchFrontier& frontier,
                               std::string_view learner,
                               uint64_t fingerprint) {
  if (frontier.learner != learner) {
    return InvalidArgumentError(
        "checkpoint was written by learner '" + frontier.learner +
        "', this run uses '" + std::string(learner) + "'");
  }
  if (frontier.fingerprint != fingerprint) {
    return InvalidArgumentError(
        "checkpoint fingerprint " + FormatHexUint64(frontier.fingerprint) +
        " does not match this problem instance (" +
        FormatHexUint64(fingerprint) +
        "): graph, training data, or learner parameters differ");
  }
  return OkStatus();
}

void SearchCheckpointer::Save(const SearchFrontier& frontier) {
  if (disabled_) return;
  Status status = SaveFrontier(path_, frontier);
  if (!status.ok()) {
    std::fprintf(stderr,
                 "warning: checkpointing disabled: %s\n",
                 status.message().c_str());
    disabled_ = true;
    return;
  }
  ++saves_;
  timer_.Restart();
  if (crash_after_saves_ >= 0 && saves_ >= crash_after_saves_) {
    InjectedCrash("checkpoint-save", saves_);
  }
}

ScanOutcome RunResumableScan(
    const ScanSpec& spec,
    const std::function<std::pair<double, bool>(int64_t, int)>& eval) {
  FOLEARN_CHECK_GE(spec.n_items, 0);
  FOLEARN_CHECK_GT(spec.unit, 0);
  FOLEARN_CHECK_GE(spec.first_item_discount, 0);
  FOLEARN_CHECK_LE(spec.first_item_discount, 1);
  FOLEARN_CHECK_GE(spec.stride, 1);
  ResourceGovernor* governor = spec.governor;

  ScanOutcome out;
  int64_t start = 0;
  if (spec.resume != nullptr) {
    const SearchFrontier& frontier = *spec.resume;
    // The CLI validates external frontiers (CheckFrontierCompatible + the
    // parse-level range checks); an incompatible one here is a caller bug.
    FOLEARN_CHECK(frontier.learner == spec.learner)
        << "resume frontier from learner '" << frontier.learner << "'";
    FOLEARN_CHECK_EQ(frontier.fingerprint, spec.fingerprint);
    FOLEARN_CHECK_LE(frontier.cursor, spec.n_items);
    start = frontier.cursor;
    out.winner = frontier.best_index;
    out.best_error = frontier.best_error;
    out.tried = frontier.tried;
    if (governor != nullptr) {
      governor->RestoreLedger(frontier.governor_work,
                              frontier.governor_checkpoints);
    }
    if (spec.early_stop && out.winner >= 0 && out.best_error == 0.0) {
      // The uninterrupted scan stopped at this hit; nothing left to do.
      return out;
    }
  }
  // The first candidate's discount is only live on a fresh scan: a resumed
  // ledger already includes it.
  const int64_t discount = start == 0 ? spec.first_item_discount : 0;

  const int64_t allowance =
      governor == nullptr ? kNoLimit : governor->DeterministicAllowance();
  const int64_t budget_items =
      allowance == kNoLimit
          ? spec.n_items - start
          : std::min(spec.n_items - start, (allowance + discount) / spec.unit);
  const int64_t full_end = start + budget_items;

  SweepOptions sweep;
  sweep.threads = spec.threads;
  sweep.chunk_size = spec.chunk_size;
  sweep.governor = governor;
  sweep.stop_on_hit = spec.early_stop;

  // Last fully-settled frontier: the state after the most recent completed
  // segment (initially the scan entry state). Periodic saves write it, and
  // an interrupted scan writes it once more on the way out, so a Ctrl-C or
  // tripped budget never discards progress past the last save interval.
  SearchFrontier settled;
  settled.learner = spec.learner;
  settled.fingerprint = spec.fingerprint;
  settled.cursor = start;
  settled.best_index = out.winner;
  settled.best_error = out.best_error;
  settled.tried = out.tried;
  if (governor != nullptr) {
    settled.governor_work = governor->work_used();
    settled.governor_checkpoints = governor->checkpoints_passed();
  }

  int64_t cursor = start;
  bool passive = false;
  bool hit = false;
  while (cursor < full_end && !passive && !hit) {
    const int64_t seg_start = cursor;
    const int64_t seg_end =
        spec.checkpointer == nullptr
            ? full_end
            : std::min(full_end, seg_start + spec.stride);
    const int64_t seg_n = seg_end - seg_start;
    const int64_t seg_discount = seg_start == 0 ? discount : 0;
    SweepOutcome segment = ParallelSweep(
        seg_n, sweep,
        [&](int64_t index, int worker) {
          return eval(seg_start + index, worker);
        });

    // Merge: segments scan in increasing index order, so an earlier best
    // (including the resumed prefix) wins ties.
    if (segment.best_index >= 0 &&
        (out.winner < 0 || segment.best_key < out.best_error)) {
      out.winner = seg_start + segment.best_index;
      out.best_error = segment.best_key;
    }

    int64_t charge;
    if (segment.passive_stop) {
      // Deadline/cancellation: timing-dependent, like the sequential
      // deadline path; the trailing unit latches the trip. With nothing
      // evaluated under a first-item discount, that unit is the first
      // checkpoint inside candidate 0.
      passive = true;
      out.tried += segment.evaluated;
      charge = std::max<int64_t>(
          1, segment.evaluated * spec.unit + 1 - seg_discount);
    } else if (segment.first_hit >= 0) {
      hit = true;
      out.tried += segment.first_hit + 1;
      charge = (segment.first_hit + 1) * spec.unit - seg_discount;
    } else {
      out.tried += seg_n;
      charge = seg_n * spec.unit - seg_discount;
    }
    if (governor != nullptr) governor->CheckpointBatch(charge);
    cursor = seg_end;

    if (!passive && !hit) {
      settled.cursor = cursor;
      settled.best_index = out.winner;
      settled.best_error = out.best_error;
      settled.tried = out.tried;
      if (governor != nullptr) {
        settled.governor_work = governor->work_used();
        settled.governor_checkpoints = governor->checkpoints_passed();
      }
      if (spec.checkpointer != nullptr && spec.checkpointer->Due()) {
        spec.checkpointer->Save(settled);
      }
    }
  }

  if (!passive && !hit && full_end < spec.n_items) {
    // Deterministic trip mid-range: the sequential loop may still have
    // started (and counted) one partial candidate past the last complete
    // one; the leftover units plus the failing call latch the trip.
    const int64_t leftover =
        allowance - (budget_items * spec.unit - discount);
    if (governor != nullptr) governor->CheckpointBatch(leftover + 1);
    if (leftover > 0) out.tried += 1;
  }

  // Interrupted (cancellation, deadline, or a tripped deterministic
  // limit): persist the last settled frontier regardless of the save
  // interval, so the interruption exits through the same final-checkpoint
  // path as a periodic save and `--resume` continues from the cut instead
  // of losing everything since the last interval. A resumed run re-charges
  // any partial trailing work exactly as the interrupted one did, so the
  // byte-identity guarantee is unchanged.
  if (spec.checkpointer != nullptr &&
      (passive || GovernorInterrupted(governor))) {
    spec.checkpointer->Save(settled);
  }
  return out;
}

}  // namespace folearn
