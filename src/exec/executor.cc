#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/guard.h"

namespace locs {

namespace {

using Clock = std::chrono::steady_clock;

// Executor whose RunItems is live on this thread. Lets a nested
// ParallelFor on the same executor degrade to inline execution instead of
// deadlocking on run_mutex_.
thread_local const Executor* tls_running_on = nullptr;

}  // namespace

/// One ParallelFor invocation. Lives on the caller's stack; workers only
/// touch it between adoption (active incremented under the pool mutex) and
/// release (decremented under the pool mutex), and the caller does not
/// return before active == 0.
struct Executor::Job {
  const Body* body = nullptr;
  size_t num_items = 0;
  unsigned max_workers = 1;  // participants cap, caller included
  bool has_deadline = false;
  Clock::time_point deadline{};
  const std::atomic<bool>* cancel = nullptr;

  std::atomic<size_t> cursor{0};     // next unclaimed index
  std::atomic<size_t> items_run{0};  // finished items
  std::atomic<bool> stop{false};     // an exception was captured
  std::atomic<bool> hit_deadline{false};
  std::atomic<bool> hit_cancel{false};
  Mutex error_mutex;
  std::exception_ptr error LOCS_GUARDED_BY(error_mutex);
  unsigned active = 0;  // pool workers inside RunItems; guarded by the
                        // executor's mutex_ (not expressible as an
                        // annotation: Job holds no Executor reference)
};

Executor::Executor(unsigned num_threads)
    : num_workers_(num_threads != 0
                       ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency())) {}

Executor::~Executor() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  job_cv_.NotifyAll();
  // Destructor exemption: after shutdown_ is published no worker touches
  // threads_, and no other thread may hold a reference to a dying
  // Executor (joining under mutex_ would deadlock with WorkerLoop).
  for (std::thread& thread : threads_) thread.join();
}

bool Executor::started() const {
  MutexLock lock(mutex_);
  return started_;
}

void Executor::EnsureStarted() {
  MutexLock lock(mutex_);
  if (started_ || num_workers_ <= 1) return;
  started_ = true;
  // reserve() up front: if a thread fails to spawn, the ones already
  // running are registered in threads_ and the destructor joins them —
  // unlike the old per-batch spawn loop, a throw here cannot leak a
  // joinable thread.
  threads_.reserve(num_workers_ - 1);
  for (unsigned i = 0; i + 1 < num_workers_; ++i) {
    threads_.emplace_back(&Executor::WorkerLoop, this, i);
  }
}

void Executor::RunItems(Job& job, unsigned worker) {
  try {
    while (!job.stop.load(std::memory_order_relaxed)) {
      if (job.cancel != nullptr &&
          job.cancel->load(std::memory_order_relaxed)) {
        job.hit_cancel.store(true, std::memory_order_relaxed);
        break;
      }
      if (job.has_deadline && Clock::now() >= job.deadline) {
        job.hit_deadline.store(true, std::memory_order_relaxed);
        break;
      }
      const size_t item = job.cursor.fetch_add(1, std::memory_order_relaxed);
      if (item >= job.num_items) break;
      (*job.body)(worker, item);
      job.items_run.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    {
      MutexLock lock(job.error_mutex);
      if (job.error == nullptr) job.error = std::current_exception();
    }
    job.stop.store(true, std::memory_order_relaxed);
  }
}

void Executor::WorkerLoop(unsigned pool_index) {
  const unsigned worker = pool_index + 1;  // worker 0 is the caller
  uint64_t seen = 0;
  MutexLock lock(mutex_);
  while (true) {
    // Manual wait loop: the analysis sees the guarded reads with mutex_
    // held directly (a predicate lambda would need its own annotations).
    while (!shutdown_ && generation_ == seen) job_cv_.Wait(lock);
    if (shutdown_) return;
    seen = generation_;
    Job* job = job_;
    if (job == nullptr || worker >= job->max_workers) continue;
    ++job->active;
    lock.Unlock();
    tls_running_on = this;
    RunItems(*job, worker);
    tls_running_on = nullptr;
    lock.Lock();
    if (--job->active == 0) done_cv_.NotifyAll();
  }
}

Executor::RunResult Executor::ParallelFor(size_t num_items, const Body& body,
                                          const RunOptions& options) {
  RunResult result;
  if (num_items == 0) return result;

  Job job;
  job.body = &body;
  job.num_items = num_items;
  job.cancel = options.cancel;
  job.has_deadline = options.deadline_ms > 0.0;
  if (job.has_deadline) {
    job.deadline = DeadlineAfterMs(options.deadline_ms);
  }

  unsigned workers = num_workers_;
  if (options.max_workers != 0) {
    workers = std::min(workers, options.max_workers);
  }
  // No point waking workers that could never claim an item.
  if (size_t{workers} > num_items) workers = static_cast<unsigned>(num_items);
  job.max_workers = std::max(1u, workers);

  // A nested call from inside a body runs inline: the outer call holds
  // run_mutex_ and the pool is already saturated.
  const bool parallel = job.max_workers > 1 && tls_running_on != this;

  if (!parallel) {
    const Executor* outer = tls_running_on;
    tls_running_on = this;
    RunItems(job, 0);
    tls_running_on = outer;
  } else {
    MutexLock run_lock(run_mutex_);
    EnsureStarted();
    {
      MutexLock lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    job_cv_.NotifyAll();
    tls_running_on = this;
    RunItems(job, 0);
    tls_running_on = nullptr;
    {
      MutexLock lock(mutex_);
      job_ = nullptr;  // no further adoption; drain the workers inside
      while (job.active != 0) done_cv_.Wait(lock);
    }
  }

  // Uncontended by now (all workers drained), but the lock keeps the
  // guarded access visible to the analysis instead of special-cased.
  std::exception_ptr error;
  {
    MutexLock lock(job.error_mutex);
    error = job.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
  result.items_run =
      std::min(job.items_run.load(std::memory_order_relaxed), num_items);
  if (result.items_run < num_items) {
    result.cause = job.hit_cancel.load(std::memory_order_relaxed)
                       ? StopCause::kCancelled
                       : StopCause::kDeadline;
  }
  return result;
}

Executor& Executor::Shared() {
  static Executor executor(
      std::max(std::thread::hardware_concurrency(), 8u));
  return executor;
}

}  // namespace locs
