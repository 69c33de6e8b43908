// Persistent fork-join thread pool for batch query serving.
//
// A lazily-started pool of workers stays alive across batches, items are
// claimed one at a time off an atomic cursor, the first exception a body
// throws is captured and rethrown on the calling thread after every
// worker has drained (the pool stays usable), and each call can carry a
// wall-clock deadline or an external cancellation flag. Items are
// queries, µs to ms each: one-item claims keep the load balanced under
// power-law query costs and make deadline checks per-query precise, at
// one relaxed fetch_add per item.
//
// The calling thread participates as worker 0, so an Executor with
// num_workers() == N owns N-1 pool threads; Executor(1) never spawns a
// thread and runs everything inline. The library itself is exception-free
// (see docs/ARCHITECTURE.md); the executor is the one boundary that must
// tolerate throwing bodies (std::bad_alloc, test stubs) without
// terminating.

#ifndef LOCS_EXEC_EXECUTOR_H_
#define LOCS_EXEC_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace locs {

/// A reusable pool of worker threads executing index-range jobs.
/// ParallelFor calls from different threads are serialized internally;
/// a nested ParallelFor issued from inside a body runs inline on the
/// worker that issued it (no deadlock, no extra parallelism).
class Executor {
 public:
  /// The body: process item `item` as `worker` (a stable id in
  /// [0, num_workers()); the same worker id is never active twice
  /// concurrently, so per-worker state needs no locking).
  using Body = std::function<void(unsigned worker, size_t item)>;

  /// Per-call execution controls.
  struct RunOptions {
    /// Cap on participating workers for this call; 0 = the whole pool.
    unsigned max_workers = 0;
    /// Wall-clock budget in milliseconds; 0 = none. Checked before each
    /// claim, so a claimed item always completes — the items that ran
    /// always form the prefix [0, items_run).
    double deadline_ms = 0.0;
    /// External cancellation flag, polled before each claim.
    const std::atomic<bool>* cancel = nullptr;
  };

  /// Why ParallelFor returned.
  enum class StopCause { kCompleted, kDeadline, kCancelled };

  struct RunResult {
    /// Items processed; exactly the prefix [0, items_run) of the index
    /// space (claims are monotone and claimed items always finish).
    size_t items_run = 0;
    StopCause cause = StopCause::kCompleted;
  };

  /// `num_threads` counts total parallelism including the calling thread;
  /// 0 resolves to std::thread::hardware_concurrency(). No thread is
  /// spawned until the first parallel call (lazy start).
  explicit Executor(unsigned num_threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  unsigned num_workers() const { return num_workers_; }

  /// True once the pool threads have been spawned.
  bool started() const LOCS_EXCLUDES(mutex_);

  /// Runs `body` over [0, num_items), one claimed item at a time, and
  /// blocks until every claimed item has finished. The first exception
  /// thrown by `body` is rethrown here after all workers have drained;
  /// the pool remains usable afterwards.
  RunResult ParallelFor(size_t num_items, const Body& body,
                        const RunOptions& options)
      LOCS_EXCLUDES(run_mutex_, mutex_);
  RunResult ParallelFor(size_t num_items, const Body& body) {
    return ParallelFor(num_items, body, RunOptions());
  }

  /// Process-wide executor shared by the batch entry points. Sized
  /// max(hardware_concurrency, 8) so thread-count invariance is exercised
  /// even on small machines.
  static Executor& Shared();

 private:
  struct Job;

  void WorkerLoop(unsigned pool_index) LOCS_EXCLUDES(mutex_);
  void EnsureStarted() LOCS_EXCLUDES(mutex_);
  static void RunItems(Job& job, unsigned worker);

  const unsigned num_workers_;
  Mutex run_mutex_;  // serializes concurrent ParallelFor calls

  mutable Mutex mutex_;  // guards the fields annotated below
  CondVar job_cv_;       // workers: a new job was published
  CondVar done_cv_;      // caller: a worker left the job
  // Lazily spawned pool threads, num_workers_ - 1 of them. Writes are
  // guarded by mutex_; the destructor's join runs after every worker has
  // observed shutdown_ and is the usual destructor exemption.
  std::vector<std::thread> threads_ LOCS_GUARDED_BY(mutex_);
  Job* job_ LOCS_GUARDED_BY(mutex_) = nullptr;  // null = none adoptable
  uint64_t generation_ LOCS_GUARDED_BY(mutex_) = 0;  // bumped per job
  bool started_ LOCS_GUARDED_BY(mutex_) = false;
  bool shutdown_ LOCS_GUARDED_BY(mutex_) = false;
};

}  // namespace locs

#endif  // LOCS_EXEC_EXECUTOR_H_
