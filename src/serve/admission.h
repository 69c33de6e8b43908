// AdmissionController — caps how many queries execute at once.
//
// Up to `max_inflight` requests hold a slot; the rest wait (on the
// condvar) for one to free. The wait needs no bound of its own: each
// locsd session runs one request at a time, so inflight + queued never
// exceeds the session count, and the session cap (--max-sessions) is
// where excess load is turned away. Each query is bounded on its own by
// its QueryGuard deadline and budget.
//
// An AdmissionTicket is the RAII slot: destroying it frees the slot and
// wakes one waiter.

#ifndef LOCS_SERVE_ADMISSION_H_
#define LOCS_SERVE_ADMISSION_H_

#include "util/thread_annotations.h"

namespace locs::serve {

/// See the file comment. Thread-safe.
class AdmissionController {
 public:
  struct Counts {
    unsigned inflight = 0;
    unsigned queued = 0;
  };

  /// `max_inflight` concurrently executing requests; 0 behaves as 1.
  explicit AdmissionController(unsigned max_inflight = 4)
      : max_inflight_(max_inflight == 0 ? 1 : max_inflight) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Blocks until a slot is free, then takes it.
  void Enter() LOCS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    ++queued_;
    while (inflight_ >= max_inflight_) cv_.Wait(lock);
    --queued_;
    ++inflight_;
  }

  /// Frees a slot taken by Enter().
  void Leave() LOCS_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      --inflight_;
    }
    cv_.NotifyOne();
  }

  Counts Snapshot() const LOCS_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return Counts{inflight_, queued_};
  }

  unsigned max_inflight() const { return max_inflight_; }

 private:
  const unsigned max_inflight_;
  mutable Mutex mutex_;
  CondVar cv_;
  unsigned inflight_ LOCS_GUARDED_BY(mutex_) = 0;
  unsigned queued_ LOCS_GUARDED_BY(mutex_) = 0;
};

/// RAII admission slot.
class AdmissionTicket {
 public:
  explicit AdmissionTicket(AdmissionController& controller)
      : controller_(controller) {
    controller_.Enter();
  }
  ~AdmissionTicket() { controller_.Leave(); }

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

 private:
  AdmissionController& controller_;
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_ADMISSION_H_
