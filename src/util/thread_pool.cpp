#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace autolearn::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stop_ || (fn_ != nullptr && next_ < parts_);
    });
    if (fn_ == nullptr || next_ >= parts_) return;  // stop_, nothing to claim
    run_chunks(lock);
  }
}

void ThreadPool::run_chunks(std::unique_lock<std::mutex>& lock) {
  // The region description is copied out before unlocking: the caller
  // clears fn_ and ctx_ once done_ reaches parts_, which can happen while
  // this thread still runs its last chunk.
  const RawChunkFn fn = fn_;
  const void* const ctx = ctx_;
  const std::size_t begin = begin_, end = end_, chunk = chunk_;
  while (next_ < parts_) {
    const std::size_t b = begin + next_++ * chunk;
    const std::size_t e = std::min(end, b + chunk);
    lock.unlock();
    std::exception_ptr err;
    try {
      fn(ctx, b, e);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !error_) error_ = err;
    if (++done_ == parts_) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for_chunks_raw(std::size_t begin, std::size_t end,
                                         RawChunkFn fn, const void* ctx) {
  const std::size_t n = end - begin;
  // One region at a time; competing callers wait here (no allocation —
  // mutex waits are intrusive).
  std::scoped_lock region(region_mu_);
  std::exception_ptr err;
  {
    std::unique_lock lock(mu_);
    fn_ = fn;
    ctx_ = ctx;
    begin_ = begin;
    end_ = end;
    chunk_ = (n + workers_.size()) / (workers_.size() + 1);
    // Rounding the chunk up can leave fewer non-empty chunks than
    // workers + 1; only those are handed out.
    parts_ = (n + chunk_ - 1) / chunk_;
    next_ = 0;
    done_ = 0;
    error_ = nullptr;
    cv_.notify_all();
    // The caller contributes work instead of just blocking.
    run_chunks(lock);
    done_cv_.wait(lock, [this] { return done_ == parts_; });
    fn_ = nullptr;
    ctx_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

namespace {
ThreadPool* shared_override = nullptr;
}  // namespace

std::size_t ThreadPool::env_thread_override() {
  const char* env = std::getenv("AUTOLEARN_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  std::size_t v = 0;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    v = v * 10 + static_cast<std::size_t>(*p - '0');
    if (v > kMaxEnvThreads) return 0;  // also stops before any overflow
  }
  return v;
}

ThreadPool& ThreadPool::shared() {
  if (shared_override != nullptr) return *shared_override;
  static ThreadPool pool(env_thread_override());
  return pool;
}

ThreadPool::ScopedOverride::ScopedOverride(ThreadPool& pool)
    : prev_(shared_override) {
  shared_override = &pool;
}

ThreadPool::ScopedOverride::~ScopedOverride() { shared_override = prev_; }

}  // namespace autolearn::util
