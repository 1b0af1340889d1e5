#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One recorded interval. `name` is "<layer>.<what>"; the layer is the
// folearn module whose public call the span wraps. `parent` indexes the
// enclosing span (-1 for a request root); spans of one replayed request
// share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

// In-memory span recorder for the single-threaded replay. Disabled, it
// reads no clock and records nothing, which is what the spans-off pass
// measures the overhead against.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(int64_t request) { request_ = request; }

  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  // Closes the innermost span; `rename` replaces its name when the call's
  // outcome decides it (a plan-cache hit versus a compile).
  void End(int32_t id, const char* rename = nullptr) {
    if (id < 0) return;
    spans_[id].end_ns = NowNs();
    if (rename != nullptr) spans_[id].name = rename;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t request_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_, rename_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(const char* name) { rename_ = name; }

 private:
  Tracer& tracer_;
  int32_t id_;
  const char* rename_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
