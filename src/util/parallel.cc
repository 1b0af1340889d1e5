#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace folearn {

namespace {

constexpr int kMaxThreads = 256;

// Set while the current thread is executing a pool job, so nested
// RunParallel calls degrade to sequential execution instead of waiting on
// workers that can never be scheduled.
thread_local bool t_in_pool_worker = false;

}  // namespace

int EffectiveThreads(int requested) {
  FOLEARN_CHECK_GE(requested, 0) << "thread count must be >= 0";
  if (requested == 0) {
    unsigned hardware = std::thread::hardware_concurrency();
    requested = hardware == 0 ? 1 : static_cast<int>(hardware);
  }
  if (requested > kMaxThreads) requested = kMaxThreads;
  return requested;
}

struct ThreadPool::Impl {
  std::mutex run_mutex;  // serialises jobs; one job owns the pool at a time

  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> threads;
  const std::function<void(int)>* job = nullptr;
  int job_workers = 0;   // pool-side worker count for the current job
  int job_claimed = 0;   // pool workers that have picked up the job
  int job_pending = 0;   // pool workers still running the job
  bool stopping = false;

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (std::thread& thread : threads) thread.join();
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      work_cv.wait(lock, [&] {
        return stopping || (job != nullptr && job_claimed < job_workers);
      });
      if (stopping) return;
      // Pool workers are numbered from 1; the submitting thread is 0.
      const int worker = ++job_claimed;
      const std::function<void(int)>* body = job;
      lock.unlock();
      t_in_pool_worker = true;
      (*body)(worker);
      t_in_pool_worker = false;
      lock.lock();
      if (--job_pending == 0) done_cv.notify_all();
    }
  }

  void EnsureThreads(int count) {
    while (static_cast<int>(threads.size()) < count) {
      threads.emplace_back([this] { WorkerLoop(); });
    }
  }
};

ThreadPool::Impl* ThreadPool::impl() {
  // The pool is only grown from RunParallel under run_mutex… but run_mutex
  // lives inside Impl, so construction itself must be race-free. Calls all
  // come from threads that are about to serialise on run_mutex anyway;
  // guard construction with a local static mutex to be safe under TSan.
  static std::mutex init_mutex;
  std::lock_guard<std::mutex> lock(init_mutex);
  if (impl_ == nullptr) impl_ = new Impl();
  return impl_;
}

ThreadPool::~ThreadPool() { delete impl_; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::started_threads() const {
  if (impl_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return static_cast<int>(impl_->threads.size());
}

void ThreadPool::RunParallel(int workers,
                             const std::function<void(int)>& body) {
  FOLEARN_CHECK_GE(workers, 1);
  FOLEARN_CHECK_LE(workers, kMaxThreads);
  if (workers == 1 || t_in_pool_worker) {
    for (int worker = 0; worker < workers; ++worker) body(worker);
    return;
  }
  Impl* pool = impl();
  std::lock_guard<std::mutex> run_lock(pool->run_mutex);
  {
    std::lock_guard<std::mutex> lock(pool->mutex);
    pool->EnsureThreads(workers - 1);
    pool->job = &body;
    pool->job_workers = workers - 1;
    pool->job_claimed = 0;
    pool->job_pending = workers - 1;
  }
  pool->work_cv.notify_all();
  // The submitting thread is worker 0. Mark it as inside the pool for the
  // duration so nested RunParallel calls degrade to sequential instead of
  // re-locking run_mutex (self-deadlock).
  t_in_pool_worker = true;
  body(0);
  t_in_pool_worker = false;
  std::unique_lock<std::mutex> lock(pool->mutex);
  pool->done_cv.wait(lock, [&] { return pool->job_pending == 0; });
  pool->job = nullptr;
}

SweepOutcome ParallelSweep(
    int64_t n, const SweepOptions& options,
    const std::function<std::pair<double, bool>(int64_t, int)>& eval) {
  SweepOutcome out;
  if (n <= 0) return out;
  const int workers = options.threads < 1 ? 1 : options.threads;
  const int64_t chunk_size = options.chunk_size < 1 ? 1 : options.chunk_size;
  const int64_t total_chunks = (n - 1) / chunk_size + 1;

  std::atomic<int64_t> next_chunk{0};
  // Set on a hit (when stop_on_hit): stop claiming chunks, finish
  // in-flight ones so every index below the minimum hit gets evaluated.
  std::atomic<bool> stop_issuing{false};
  // Set on a passive governor limit: abandon mid-chunk immediately.
  std::atomic<bool> abort_now{false};

  struct Local {
    int64_t evaluated = 0;
    int64_t best_index = -1;
    double best_key = std::numeric_limits<double>::infinity();
    int64_t first_hit = -1;
    bool passive = false;
    // Pad out false sharing between adjacent workers' accumulators.
    char padding[64];
  };
  std::vector<Local> locals(workers);

  auto run = [&](int worker) {
    Local& local = locals[worker];
    while (!stop_issuing.load(std::memory_order_relaxed)) {
      const int64_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= total_chunks) return;
      const int64_t begin = chunk * chunk_size;
      const int64_t end =
          n - begin > chunk_size ? begin + chunk_size : n;
      for (int64_t index = begin; index < end; ++index) {
        if (abort_now.load(std::memory_order_relaxed)) return;
        if (options.governor != nullptr && options.governor->PassiveLimitHit()) {
          local.passive = true;
          abort_now.store(true, std::memory_order_relaxed);
          stop_issuing.store(true, std::memory_order_relaxed);
          return;
        }
        const auto [key, hit] = eval(index, worker);
        ++local.evaluated;
        if (local.best_index < 0 || key < local.best_key ||
            (key == local.best_key && index < local.best_index)) {
          local.best_key = key;
          local.best_index = index;
        }
        if (hit) {
          if (local.first_hit < 0 || index < local.first_hit) {
            local.first_hit = index;
          }
          if (options.stop_on_hit) {
            stop_issuing.store(true, std::memory_order_relaxed);
          }
        }
      }
    }
  };
  ThreadPool::Global().RunParallel(workers, run);

  for (const Local& local : locals) {
    out.evaluated += local.evaluated;
    out.passive_stop = out.passive_stop || local.passive;
    if (local.best_index >= 0 &&
        (out.best_index < 0 || local.best_key < out.best_key ||
         (local.best_key == out.best_key &&
          local.best_index < out.best_index))) {
      out.best_key = local.best_key;
      out.best_index = local.best_index;
    }
    if (local.first_hit >= 0 &&
        (out.first_hit < 0 || local.first_hit < out.first_hit)) {
      out.first_hit = local.first_hit;
    }
  }
  return out;
}

}  // namespace folearn
