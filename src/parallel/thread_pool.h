#pragma once
// Thread pool with a caller-participating fork-join parallel_for.
//
// parallel_for splits a range into contiguous chunks and publishes one
// shared job. The calling thread runs the first chunk and then claims the
// rest from the job's atomic counter alongside at most
// min(workers, chunks - 1) woken helpers, so it never waits on a helper that
// has not started: it waits, asleep, only for chunks a helper has claimed. A
// helper that wakes after every chunk is claimed touches only the shared job
// state, never the caller's callable. With zero workers, or one chunk, the
// callable runs inline once over the whole range.
//
// The tensor kernels size their chunks by work (see kernels::for_rows) so
// small GEMMs stay on the calling thread. Several threads may call
// parallel_for on one pool at once; each call is independent. submit()
// runs arbitrary tasks on the workers through a FIFO queue.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace matgpt {

/// CPUs this process may run on: the size of its affinity mask
/// (sched_getaffinity), or hardware_concurrency() where the mask cannot be
/// read. Never below 1.
std::size_t available_cpus();

class ThreadPool {
 public:
  /// `workers == 0` means execute all tasks inline on the calling thread.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Enqueue a task; the returned future resolves when it completes.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(lo, hi) over [begin, end) split into at most `max_chunks`
  /// contiguous chunks (0 = four per participating thread). Chunk bounds
  /// are begin + multiples of `grain`, except the final end. The first chunk
  /// runs on the calling thread. Blocks until every chunk has finished.
  /// After a chunk throws, unstarted chunks are skipped and the first
  /// exception is rethrown once the running ones finish.
  template <class Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                    std::size_t max_chunks = 0, std::size_t grain = 1) {
    using F = std::remove_reference_t<Fn>;
    void* self = const_cast<std::remove_const_t<F>*>(std::addressof(fn));
    run_chunks(begin, end, max_chunks, grain,
               ChunkFn{self, [](void* f, std::size_t lo, std::size_t hi) {
                         (*static_cast<F*>(f))(lo, hi);
                       }});
  }

  /// Process-wide pool with one worker per available CPU beyond the
  /// caller's own (none on one CPU).
  static ThreadPool& global();

 private:
  /// Non-owning reference to the caller's callable.
  struct ChunkFn {
    void* self;
    void (*call)(void*, std::size_t, std::size_t);
  };
  struct ForJob;

  void run_chunks(std::size_t begin, std::size_t end, std::size_t max_chunks,
                  std::size_t grain, ChunkFn fn);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;  // guarded by mutex_
  // One entry per wanted helper, at most worker_count() entries; guarded by
  // mutex_. Workers take these before queue_.
  std::vector<std::shared_ptr<ForJob>> helper_slots_;
  bool stopping_ = false;  // guarded by mutex_
  std::vector<std::thread> threads_;
};

}  // namespace matgpt
