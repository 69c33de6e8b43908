// Fixture: locs-blocking-under-lock — syscall-shaped calls must not
// run while a locs::MutexLock is live: a blocked thread must never
// hold a serving-path mutex.
// Lexed by locs_lint, never compiled: the fixture needs no includes.

namespace fixture {

class Sink {
 public:
  // Blocking IO with the lock held: one finding per call.
  void BadAppend(const char* data, unsigned long size) {
    locs::MutexLock lock(mutex_);
    fwrite(data, 1, size, file_);
    fflush(file_);
  }

  // Sleeping on a held mutex convoys every waiting peer.
  void BadNap() {
    locs::MutexLock lock(mutex_);
    std::this_thread::sleep_for(10);
  }

  // Lock released before the IO: clean.
  void GoodAppend(const char* data, unsigned long size) {
    {
      locs::MutexLock lock(mutex_);
      dirty_ = true;
    }
    fwrite(data, 1, size, file_);
  }

  // Explicit unlock window: the syscall runs lock-free.
  void WindowedPoll() {
    locs::MutexLock lock(mutex_);
    lock.Unlock();
    poll(nullptr, 0, 0);
    lock.Lock();
  }

  // Audited exception with the required justification comment.
  void AuditedFlush() {
    locs::MutexLock lock(mutex_);
    // Serialized line-at-a-time writes must stay under the lock (see
    // docs/ARCHITECTURE.md, "Static analysis").
    fflush(file_);  // NOLINT(locs-blocking-under-lock)
  }

  // Line reads, multiplexed waits and member-call IO block the same way.
  void BadReadLine(char** line, unsigned long* capacity) {
    locs::MutexLock lock(mutex_);
    getdelim(line, capacity, '\n', file_);
  }

  void BadEpollWait() {
    locs::MutexLock lock(mutex_);
    epoll_pwait(0, nullptr, 1, -1, nullptr);
  }

  void BadSelect() {
    locs::MutexLock lock(mutex_);
    pselect(0, nullptr, nullptr, nullptr, nullptr, nullptr);
  }

  void BadStreamWrite(std::ostream& out, const char* data) {
    locs::MutexLock lock(mutex_);
    out.write(data, 1);
  }

  // A brace-initialized lock is held like a parenthesized one.
  void BadBraced() {
    locs::MutexLock lock{mutex_};
    fsync(0);
  }

 private:
  locs::Mutex mutex_;
  void* file_ = nullptr;
  bool dirty_ = false;
};

}  // namespace fixture
