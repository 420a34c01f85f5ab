// RAII worker-thread pool with one blocking, allocation-free parallel
// region.
//
// Follows the Core Guidelines concurrency rules: threads are joined in the
// destructor (never detached), all shared state is guarded by scoped locks,
// and user code never runs while the lock on that state is held (a region
// holds only the lock that serializes regions).
//
// AutoLearn uses the pool for the data-parallel inner loops of ml/ (GEMM
// tiles, convolution samples and the int8 GEMM), so its one primitive is
// parallel_for_chunks over an index range with static chunking.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace autolearn::util {

class ThreadPool {
 public:
  /// Largest AUTOLEARN_THREADS value env_thread_override() accepts.
  static constexpr std::size_t kMaxEnvThreads = 256;

  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into
  /// contiguous chunks, workers + 1 of them at most, spread over the
  /// workers and the calling thread, and blocks until every chunk is done.
  /// The chunks are a pure function of the range and the worker count, and
  /// fn is called concurrently, so it must write disjoint outputs per
  /// chunk. A one-element range, and every range on a single-worker pool,
  /// runs inline as one call on the caller. The first exception a chunk
  /// throws is rethrown here once every chunk has finished.
  ///
  /// fn is passed by address, so a region allocates nothing (the compiled
  /// plan depends on this — see ml/plan.hpp). Regions from different
  /// threads serialize against each other; do not start one from inside
  /// fn (regions do not nest).
  template <typename Fn>
  void parallel_for_chunks(std::size_t begin, std::size_t end, Fn&& fn) {
    if (begin >= end) return;
    if (end - begin == 1 || workers_.size() <= 1) {
      fn(begin, end);
      return;
    }
    using F = std::remove_reference_t<Fn>;
    parallel_for_chunks_raw(
        begin, end,
        [](const void* f, std::size_t b, std::size_t e) {
          (*static_cast<F*>(const_cast<void*>(f)))(b, e);
        },
        std::addressof(fn));
  }

  /// Process-wide shared pool, created on first use with default size.
  /// Use for library internals so each training run does not spawn its
  /// own set of workers. The AUTOLEARN_THREADS environment variable, when
  /// set to a count in [1, kMaxEnvThreads], fixes the worker count of the
  /// pool created here (reproducible thread counts for benchmarks and CI).
  static ThreadPool& shared();

  /// Parsed AUTOLEARN_THREADS value: plain decimal digits up to
  /// kMaxEnvThreads. 0 when unset, empty, or anything else (a sign, a
  /// space, a suffix, a value past the limit).
  static std::size_t env_thread_override();

  /// RAII redirect of shared() to a caller-owned pool, used by tests and
  /// benchmarks to pin the worker count seen by library internals. Not
  /// thread-safe: install and remove from the main thread only, while no
  /// parallel section is in flight.
  class ScopedOverride {
   public:
    explicit ScopedOverride(ThreadPool& pool);
    ~ScopedOverride();
    ScopedOverride(const ScopedOverride&) = delete;
    ScopedOverride& operator=(const ScopedOverride&) = delete;

   private:
    ThreadPool* prev_;
  };

 private:
  /// Chunk body of a region: fn(ctx, chunk_begin, chunk_end).
  using RawChunkFn = void (*)(const void* ctx, std::size_t begin,
                              std::size_t end);

  /// The region behind parallel_for_chunks, for ranges of two or more on a
  /// pool of two or more workers: publishes the region in pool-resident
  /// state, lets the workers and the caller claim chunks, and waits.
  void parallel_for_chunks_raw(std::size_t begin, std::size_t end,
                               RawChunkFn fn, const void* ctx);
  void worker_loop();
  /// Claims and runs region chunks until none remain. Caller must hold
  /// `lock` (on mu_); the lock is released while a chunk body runs.
  void run_chunks(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Active region (guarded by mu_; region_mu_ serializes regions).
  std::mutex region_mu_;
  std::condition_variable done_cv_;
  RawChunkFn fn_ = nullptr;
  const void* ctx_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t chunk_ = 0;
  std::size_t parts_ = 0;
  std::size_t next_ = 0;
  std::size_t done_ = 0;
  std::exception_ptr error_;

  // Declared last: the workers read every member above.
  std::vector<std::thread> workers_;
};

}  // namespace autolearn::util
