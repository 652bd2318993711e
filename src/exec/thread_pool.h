#ifndef FUSION_EXEC_THREAD_POOL_H_
#define FUSION_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fusion {

/// A fixed-size worker pool executing submitted closures in FIFO order.
/// Built for the thread-pool plan scheduler: one pool per plan execution,
/// sized by ExecOptions::parallelism, so concurrent source round-trips
/// overlap.
///
/// Thread-safety contract: Submit may be called from any thread (including
/// pool workers, which is how the dependency scheduler fans out newly ready
/// ops). The destructor drains every task already submitted — including
/// tasks those tasks submit — and then joins the workers, so a joined pool
/// implies all submitted work has completed (happens-before the join).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after the destructor has begun.
  void Submit(std::function<void()> task);

  /// Declares that the calling task is about to block *off-CPU* for a while
  /// (a retry backoff sleep, not a source round-trip) and should not hold
  /// one of the pool's execution slots while it does. The pool compensates
  /// by spawning one replacement worker (at most one per concurrently
  /// blocked task), so ready work keeps draining at the configured
  /// parallelism even while calls back off. Must be paired with
  /// EndBlocking from the same task, and — like Submit — must not be called
  /// once the destructor has begun (the executor joins all tasks first).
  void BeginBlocking();
  void EndBlocking();

  size_t num_threads() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  size_t blocked_ = 0;    // tasks currently inside Begin/EndBlocking
  size_t spawned_for_blocking_ = 0;  // compensation workers created
  std::vector<std::thread> workers_;
};

}  // namespace fusion

#endif  // FUSION_EXEC_THREAD_POOL_H_
