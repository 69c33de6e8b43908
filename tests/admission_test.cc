// Concurrency coverage of AdmissionController: the inflight cap must
// hold under thread churn with randomized hold times, every waiter must
// eventually get a slot, and slots must never leak (including on
// exception paths). Runs under the TSan lane via the `concurrency`
// label.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "util/rng.h"

namespace locs::serve {
namespace {

/// Busy-spin for a pseudo-random number of yields — a hold time with
/// scheduler noise but no sleeping, keeping the test fast under TSan.
void HoldBriefly(Rng& rng) {
  const unsigned yields = static_cast<unsigned>(rng.Next() % 8);
  for (unsigned i = 0; i < yields; ++i) std::this_thread::yield();
}

TEST(AdmissionConcurrencyTest, InflightNeverExceedsCapUnderChurn) {
  constexpr unsigned kMaxInflight = 4;
  AdmissionController admission(kMaxInflight);

  constexpr unsigned kThreads = 16;
  constexpr unsigned kItersPerThread = 300;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  std::atomic<uint64_t> admitted{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 1);
      for (unsigned i = 0; i < kItersPerThread; ++i) {
        AdmissionTicket ticket(admission);
        const int now = concurrent.fetch_add(1, std::memory_order_relaxed) + 1;
        int seen = max_seen.load(std::memory_order_relaxed);
        while (now > seen &&
               !max_seen.compare_exchange_weak(seen, now,
                                               std::memory_order_relaxed)) {
        }
        HoldBriefly(rng);
        concurrent.fetch_sub(1, std::memory_order_relaxed);
        admitted.fetch_add(1, std::memory_order_relaxed);
        // Only the other threads can be waiting for a slot.
        const AdmissionController::Counts counts = admission.Snapshot();
        EXPECT_LE(counts.inflight, kMaxInflight);
        EXPECT_LE(counts.inflight + counts.queued, kThreads);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_LE(max_seen.load(), static_cast<int>(kMaxInflight));
  const AdmissionController::Counts counts = admission.Snapshot();
  EXPECT_EQ(counts.inflight, 0u);  // no ticket leaked
  EXPECT_EQ(counts.queued, 0u);
  // Nothing is turned away: every request waited for and got a slot.
  EXPECT_EQ(admitted.load(), uint64_t{kThreads} * kItersPerThread);
}

TEST(AdmissionConcurrencyTest, NoLeakOnExceptionPath) {
  AdmissionController admission(/*max_inflight=*/1);
  for (int i = 0; i < 50; ++i) {
    try {
      AdmissionTicket ticket(admission);
      ASSERT_EQ(admission.Snapshot().inflight, 1u);
      throw std::runtime_error("query blew up");
    } catch (const std::runtime_error&) {
    }
  }
  // A leaked slot would make this Enter() block forever at
  // max_inflight = 1.
  AdmissionTicket last(admission);
  const AdmissionController::Counts counts = admission.Snapshot();
  EXPECT_EQ(counts.inflight, 1u);
  EXPECT_EQ(counts.queued, 0u);
}

}  // namespace
}  // namespace locs::serve
