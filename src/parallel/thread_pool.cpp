#include "parallel/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/error.h"

namespace matgpt {

std::size_t available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// The state one parallel_for call shares with its helpers. Chunk 0 belongs
// to the caller; `next` hands out the rest. Every chunk index below `chunks`
// is claimed exactly once and counted off `remaining` once it has run (or
// been skipped after a failure), so `remaining == 0` means no thread will
// touch `fn` again.
struct ThreadPool::ForJob {
  ChunkFn fn;
  std::size_t begin;
  std::size_t end;
  std::size_t grain;
  std::size_t chunks;
  std::size_t grains_per_chunk;  // the first `extra_grains` chunks get one more
  std::size_t extra_grains;
  std::atomic<std::size_t> next{1};
  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done;
  std::exception_ptr error;  // guarded by mu

  ForJob(ChunkFn f, std::size_t b, std::size_t e, std::size_t g,
         std::size_t c)
      : fn(f), begin(b), end(e), grain(g), chunks(c), remaining(c) {
    const std::size_t grains = (e - b + g - 1) / g;
    grains_per_chunk = grains / c;
    extra_grains = grains % c;
  }

  std::size_t chunk_start(std::size_t c) const {
    return begin +
           grain * (c * grains_per_chunk + std::min(c, extra_grains));
  }

  void run(std::size_t c) {
    if (!failed.load(std::memory_order_relaxed)) {
      const std::size_t hi = c + 1 == chunks ? end : chunk_start(c + 1);
      try {
        fn.call(fn.self, chunk_start(c), hi);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(mu);
      done.notify_one();
    }
  }

  // Claims and runs chunks until none is left.
  void help() {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      run(c);
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) {
  helper_slots_.reserve(workers);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  if (threads_.empty()) {
    packaged();  // inline execution mode
    return future;
  }
  {
    std::lock_guard lock(mutex_);
    MGPT_CHECK(!stopping_, "submit on a stopped ThreadPool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::run_chunks(std::size_t begin, std::size_t end,
                            std::size_t max_chunks, std::size_t grain,
                            ChunkFn fn) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(grain, 1);
  if (max_chunks == 0) max_chunks = 4 * (threads_.size() + 1);
  const std::size_t chunks =
      std::min(max_chunks, (end - begin + grain - 1) / grain);
  if (chunks <= 1 || threads_.empty()) {
    fn.call(fn.self, begin, end);
    return;
  }
  auto job = std::make_shared<ForJob>(fn, begin, end, grain, chunks);
  // Slots still queued from other calls count against the workers, so
  // concurrent callers never queue more helpers than there are workers.
  std::size_t helpers = 0;
  {
    std::lock_guard lock(mutex_);
    helpers = std::min(chunks - 1, threads_.size() - helper_slots_.size());
    for (std::size_t h = 0; h < helpers; ++h) helper_slots_.push_back(job);
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  job->run(0);
  job->help();
  if (job->remaining.load(std::memory_order_acquire) != 0) {
    std::unique_lock lock(job->mu);
    job->done.wait(lock, [&] {
      return job->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(available_cpus() - 1);
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<ForJob> job;
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] {
        return stopping_ || !helper_slots_.empty() || !queue_.empty();
      });
      if (!helper_slots_.empty()) {
        job = std::move(helper_slots_.back());
        helper_slots_.pop_back();
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      } else {
        return;  // stopping_ with nothing left to run
      }
    }
    if (job) {
      job->help();
    } else {
      task();
    }
  }
}

}  // namespace matgpt
