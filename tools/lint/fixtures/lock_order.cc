// Fixture: locs-lock-order — the lock-acquisition graph must stay
// acyclic, and locs::Mutex is non-reentrant.
// Lexed by locs_lint, never compiled: the fixture needs no includes.

namespace fixture {

class Ledger {
 public:
  // Edge Ledger::a_ -> Ledger::b_.
  void Deposit() {
    locs::MutexLock hold_a(a_);
    locs::MutexLock hold_b(b_);
  }

  // Edge Ledger::b_ -> Ledger::a_ via the LOCS_REQUIRES contract:
  // closes the cycle, so the acquisition below is the reported site.
  void Audit() LOCS_REQUIRES(b_) {
    locs::MutexLock hold_a(a_);
  }

  // Re-acquiring a mutex this scope already holds self-deadlocks.
  void Recount() LOCS_REQUIRES(c_) {
    locs::MutexLock again(c_);
  }

 private:
  locs::Mutex a_;
  locs::Mutex b_;
  locs::Mutex c_;
};

// A wait-loop re-lock after an explicit Unlock is NOT a self-edge.
class Queue {
 public:
  void Drain() {
    locs::MutexLock lock(mutex_);
    lock.Unlock();
    lock.Lock();
  }

 private:
  locs::Mutex mutex_;
};

// Out-of-line definitions hold what their contract says: one declared
// on the class, or one written on the definition, which names the
// class's own mutex either way. Each re-acquisition self-deadlocks.
class Vault {
 public:
  void Seal() LOCS_REQUIRES(key_);
  void Reseal();

 private:
  locs::Mutex key_;
  locs::Mutex lid_;
};

void Vault::Seal() {
  locs::MutexLock again(key_);
}

void Vault::Reseal() LOCS_REQUIRES(lid_) {
  locs::MutexLock again(lid_);
}

}  // namespace fixture
