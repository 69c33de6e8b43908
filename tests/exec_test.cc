// Tests for the exec subsystem: the persistent Executor (exception
// capture, deadlines, cancellation, lazy start, reuse) and the
// BatchRunner (answers equal to CommunitySearcher's, thread-count
// invariance, stat aggregation, per-worker searcher reuse across
// batches).

#include "exec/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/searcher.h"
#include "core/snapshot.h"
#include "exec/executor.h"
#include "gen/erdos_renyi.h"
#include "util/thread_annotations.h"
#include "gen/lfr.h"
#include "obs/recorder.h"

namespace locs {
namespace {

TEST(ExecutorTest, RunsEveryItemExactlyOnce) {
  Executor exec(4);
  std::vector<std::atomic<int>> hits(1000);
  const auto run = exec.ParallelFor(
      hits.size(), [&](unsigned, size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(run.items_run, hits.size());
  EXPECT_EQ(run.cause, Executor::StopCause::kCompleted);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, LazyStartAndSerialExecutorNeverSpawns) {
  Executor serial(1);
  EXPECT_FALSE(serial.started());
  int sum = 0;
  serial.ParallelFor(10, [&](unsigned worker, size_t i) {
    EXPECT_EQ(worker, 0u);
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
  EXPECT_FALSE(serial.started());

  Executor pool(4);
  EXPECT_FALSE(pool.started());
  // A single item never needs the pool either.
  pool.ParallelFor(1, [](unsigned, size_t) {});
  EXPECT_FALSE(pool.started());
  pool.ParallelFor(100, [](unsigned, size_t) {});
  EXPECT_TRUE(pool.started());
}

// Regression for the old core/parallel.cc RunWorkers: a throwing task
// (here a stand-in for a throwing solver stub) used to leave joinable
// std::threads behind and end in std::terminate. The executor must join
// on all paths, rethrow the first exception on the caller, and stay
// usable afterwards.
TEST(ExecutorTest, ThrowingTaskPropagatesAndPoolSurvives) {
  Executor exec(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        exec.ParallelFor(256,
                         [&](unsigned, size_t i) {
                           if (i == 17) {
                             throw std::runtime_error("solver stub blew up");
                           }
                         }),
        std::runtime_error);
    // The pool is intact and processes a full batch right after.
    std::atomic<size_t> done{0};
    const auto run = exec.ParallelFor(
        128, [&](unsigned, size_t) {
          done.fetch_add(1, std::memory_order_relaxed);
        });
    EXPECT_EQ(run.items_run, 128u);
    EXPECT_EQ(done.load(), 128u);
  }
}

TEST(ExecutorTest, ThrowOnEveryItemStillRethrowsOnce) {
  Executor exec(2);
  EXPECT_THROW(exec.ParallelFor(64,
                                [](unsigned, size_t) {
                                  throw std::logic_error("always");
                                }),
               std::logic_error);
}

TEST(ExecutorTest, DeadlineStopsEarlyWithPrefixSemantics) {
  Executor exec(4);
  std::vector<std::atomic<int>> hits(200);
  Executor::RunOptions options;
  options.deadline_ms = 10.0;
  const auto run = exec.ParallelFor(
      hits.size(),
      [&](unsigned, size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      },
      options);
  EXPECT_EQ(run.cause, Executor::StopCause::kDeadline);
  EXPECT_LT(run.items_run, hits.size());
  // Claimed items always complete: the executed items are exactly the
  // prefix [0, items_run).
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i < run.items_run ? 1 : 0) << "i=" << i;
  }
}

TEST(ExecutorTest, PreSetCancelRunsNothing) {
  Executor exec(4);
  std::atomic<bool> cancel{true};
  Executor::RunOptions options;
  options.cancel = &cancel;
  std::atomic<size_t> ran{0};
  const auto run = exec.ParallelFor(
      1000,
      [&](unsigned, size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
      options);
  EXPECT_EQ(run.items_run, 0u);
  EXPECT_EQ(run.cause, Executor::StopCause::kCancelled);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecutorTest, CancelMidFlightStops) {
  Executor exec(4);
  std::atomic<bool> cancel{false};
  Executor::RunOptions options;
  options.cancel = &cancel;
  const auto run = exec.ParallelFor(
      10000,
      [&](unsigned, size_t i) {
        if (i >= 8) cancel.store(true, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(run.cause, Executor::StopCause::kCancelled);
  EXPECT_LT(run.items_run, 10000u);
}

TEST(ExecutorTest, MaxWorkersCapsWorkerIds) {
  Executor exec(8);
  Executor::RunOptions options;
  options.max_workers = 2;
  locs::Mutex mutex;
  std::set<unsigned> seen;
  exec.ParallelFor(
      500,
      [&](unsigned worker, size_t) {
        locs::MutexLock lock(mutex);
        seen.insert(worker);
      },
      options);
  EXPECT_LE(seen.size(), 2u);
  for (unsigned w : seen) EXPECT_LT(w, 2u);
}

TEST(ExecutorTest, NestedParallelForRunsInline) {
  Executor exec(4);
  std::atomic<size_t> inner_total{0};
  const auto run = exec.ParallelFor(16, [&](unsigned, size_t) {
    // A body that re-enters the same executor must not deadlock.
    exec.ParallelFor(8, [&](unsigned worker, size_t) {
      EXPECT_EQ(worker, 0u);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(run.items_run, 16u);
  EXPECT_EQ(inner_total.load(), 16u * 8u);
}

TEST(ExecutorTest, ManySmallBatchesReuseThePool) {
  Executor exec(4);
  for (int batch = 0; batch < 200; ++batch) {
    std::atomic<size_t> ran{0};
    const auto run = exec.ParallelFor(
        8, [&](unsigned, size_t) {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
    ASSERT_EQ(run.items_run, 8u);
    ASSERT_EQ(ran.load(), 8u);
  }
}

TEST(ExecutorTest, ZeroItemsIsANoOp) {
  Executor exec(4);
  const auto run =
      exec.ParallelFor(0, [](unsigned, size_t) { FAIL(); });
  EXPECT_EQ(run.items_run, 0u);
  EXPECT_EQ(run.cause, Executor::StopCause::kCompleted);
}

/// Byte-identical: same status, same members in the same order, same δ.
void ExpectSameAnswer(const SearchResult& got, const SearchResult& want) {
  ASSERT_EQ(got.status, want.status);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) return;
  EXPECT_EQ(got->members, want->members);
  EXPECT_EQ(got->min_degree, want->min_degree);
}

/// Runs `queries` as one batch on `runner` with `threads` workers (0 = the
/// whole pool) and checks every answer against a serial loop of one
/// CommunitySearcher over the same snapshot: CST(k) when `k` is set, CSM
/// otherwise.
void ExpectBatchMatchesSearcher(BatchRunner& runner,
                                std::shared_ptr<const Snapshot> snapshot,
                                const std::vector<VertexId>& queries,
                                std::optional<uint32_t> k, unsigned threads) {
  BatchLimits limits;
  limits.num_threads = threads;
  const BatchResult batch = k.has_value()
                                ? runner.RunCst(queries, *k, limits)
                                : runner.RunCsm(queries, limits);
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.stats.completed, queries.size());
  EXPECT_FALSE(batch.stats.deadline_hit);
  EXPECT_EQ(batch.stats.CountOf(Termination::kFound) +
                batch.stats.CountOf(Termination::kNotExists),
            queries.size());
  CommunitySearcher searcher(std::move(snapshot));
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " v=" + std::to_string(queries[i]));
    ExpectSameAnswer(batch.results[i], k.has_value()
                                           ? searcher.Cst(queries[i], *k)
                                           : searcher.Csm(queries[i]));
  }
}

std::shared_ptr<const Snapshot> SnapshotOf(Graph graph) {
  return std::make_shared<const Snapshot>(Snapshot::Build(std::move(graph)));
}

/// A small-community LFR graph; on these the paper's local CSM2 answers
/// a strict subset of v's maxcore component for about a third of v.
std::shared_ptr<const Snapshot> LfrSnapshot(VertexId n, uint64_t seed) {
  gen::LfrParams params;
  params.n = n;
  params.min_degree = 3;
  params.max_degree = 20;
  params.min_community = 10;
  params.max_community = 50;
  params.seed = seed;
  return SnapshotOf(gen::Lfr(params).graph);
}

std::vector<VertexId> EveryNth(const Graph& graph, VertexId step) {
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < graph.NumVertices(); v += step) {
    queries.push_back(v);
  }
  return queries;
}

class BatchRunnerTest : public ::testing::Test {
 protected:
  BatchRunnerTest()
      : snapshot_(SnapshotOf(gen::ErdosRenyiGnp(300, 0.04, 17))),
        queries_(EveryNth(snapshot_->graph, 2)) {}

  std::shared_ptr<const Snapshot> snapshot_;
  std::vector<VertexId> queries_;
};

TEST_F(BatchRunnerTest, CstResultsAreByteIdenticalAcrossThreadCounts) {
  // One runner across every thread count: its worker searchers persist.
  BatchRunner runner(snapshot_);
  for (unsigned threads : {0u, 1u, 2u, 3u, 8u}) {
    ExpectBatchMatchesSearcher(runner, snapshot_, queries_, 3, threads);
  }
}

// Batch CST answers exactly as CommunitySearcher::Cst, also on the
// queries where the core-less paper solver falls back and the two parts.
TEST_F(BatchRunnerTest, CstWithCoreNumbersMatchesTheSearcherOnFallbacks) {
  CommunitySearcher searcher(snapshot_);
  LocalCstSolver paper(snapshot_->graph, &snapshot_->ordered,
                       &snapshot_->facts);
  BatchRunner runner(snapshot_);
  uint64_t fallbacks = 0;
  for (uint32_t k = 3; k <= snapshot_->index.Degeneracy(); ++k) {
    const auto batch = runner.RunCst(queries_, k);
    for (size_t i = 0; i < queries_.size(); ++i) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " v=" + std::to_string(queries_[i]));
      fallbacks += paper.Solve(queries_[i], k).telemetry.used_global_fallback;
      EXPECT_FALSE(batch.results[i].telemetry.used_global_fallback);
      ExpectSameAnswer(batch.results[i], searcher.Cst(queries_[i], k));
    }
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST_F(BatchRunnerTest, CsmResultsAreByteIdenticalAcrossThreadCounts) {
  BatchRunner runner(snapshot_);
  for (unsigned threads : {0u, 1u, 2u, 3u, 8u}) {
    ExpectBatchMatchesSearcher(runner, snapshot_, queries_, std::nullopt,
                               threads);
  }
}

// Batch CSM is the searcher's index answer, v's whole maxcore component
// (Lemma 4), not the paper's local CSM2: on this LFR graph CSM2 returns
// a strict subset of that component for some queries.
TEST_F(BatchRunnerTest, CsmMatchesTheSearcherMemberForMember) {
  const auto snapshot = LfrSnapshot(1000, 2);
  const auto queries = EveryNth(snapshot->graph, 11);
  // The fixture must separate the two answers, or this test degenerates.
  CommunitySearcher searcher(snapshot);
  LocalCsmSolver paper(snapshot->graph, &snapshot->ordered,
                       &snapshot->facts);
  uint64_t larger_than_paper = 0;
  for (VertexId v : queries) {
    larger_than_paper += searcher.Csm(v)->members.size() >
                         paper.Solve(v)->members.size();
  }
  EXPECT_GT(larger_than_paper, 0u);

  BatchRunner runner(snapshot);
  for (unsigned threads : {1u, 2u, 8u}) {
    ExpectBatchMatchesSearcher(runner, snapshot, queries, std::nullopt,
                               threads);
  }
}

TEST_F(BatchRunnerTest, UnrepresentableDeadlineCompletesEveryQuery) {
  // A batch deadline past the clock's range saturates to "never" in
  // both the executor and every query guard; it must not expire at once.
  BatchRunner runner(snapshot_);
  BatchLimits limits;
  limits.deadline_ms = 1e300;
  limits.query_deadline_ms = 1e300;
  const auto batch = runner.RunCst(queries_, 3, limits);
  EXPECT_EQ(batch.stats.completed, queries_.size());
  EXPECT_FALSE(batch.stats.deadline_hit);
  EXPECT_EQ(batch.stats.CountOf(Termination::kFound) +
                batch.stats.CountOf(Termination::kNotExists),
            queries_.size());
}

TEST_F(BatchRunnerTest, RepeatedBatchesOnOneRunnerStayIdentical) {
  // Per-worker searchers persist across batches; the O(1) epoch reset
  // must keep later batches byte-identical to the first.
  BatchRunner runner(snapshot_);
  const auto first = runner.RunCst(queries_, 3);
  for (int round = 0; round < 3; ++round) {
    const auto again = runner.RunCst(queries_, 3);
    ASSERT_EQ(again.results.size(), first.results.size());
    for (size_t i = 0; i < first.results.size(); ++i) {
      ExpectSameAnswer(again.results[i], first.results[i]);
    }
    EXPECT_EQ(again.stats.visited_vertices, first.stats.visited_vertices);
    EXPECT_EQ(again.stats.scanned_edges, first.stats.scanned_edges);
  }
}

TEST_F(BatchRunnerTest, ReusedWorkerSolverResetsTelemetryBetweenQueries) {
  // One worker thread means every query funnels through the same reused
  // searcher slot. Each query's telemetry must match a brand-new
  // searcher's — any counter carried over from the previous query would
  // show up as an inflated phase total here.
  CommunitySearcher reused(snapshot_);
  for (int round = 0; round < 2; ++round) {
    for (const VertexId v : {queries_[0], queries_[1], queries_[7]}) {
      SCOPED_TRACE("round=" + std::to_string(round) +
                   " v=" + std::to_string(v));
      const SearchResult got = reused.Cst(v, 3);
      const SearchResult got_csm = reused.Csm(v);
      CommunitySearcher fresh(snapshot_);
      const SearchResult want = fresh.Cst(v, 3);
      const SearchResult want_csm = fresh.Csm(v);
      for (size_t i = 0; i < obs::kNumPhases; ++i) {
        EXPECT_EQ(got.telemetry.phases[i].vertices_visited,
                  want.telemetry.phases[i].vertices_visited);
        EXPECT_EQ(got.telemetry.phases[i].edges_scanned,
                  want.telemetry.phases[i].edges_scanned);
        EXPECT_EQ(got.telemetry.phases[i].entered,
                  want.telemetry.phases[i].entered);
      }
      EXPECT_EQ(got.telemetry.answer_size, want.telemetry.answer_size);
      EXPECT_EQ(got_csm.telemetry.TotalVisited(),
                want_csm.telemetry.TotalVisited());
      EXPECT_EQ(got_csm.telemetry.TotalScanned(),
                want_csm.telemetry.TotalScanned());
    }
  }
}

TEST_F(BatchRunnerTest, RecorderSeesEveryQueryAcrossBatches) {
  // Reference: what one searcher records for the same queries.
  obs::AggregateRecorder reference;
  CommunitySearcher searcher(snapshot_);
  searcher.set_recorder(&reference);
  for (VertexId v : queries_) searcher.Cst(v, 3);
  const obs::AggregateRecorder::Totals want = reference.Snapshot();
  ASSERT_GT(want.queries, 0u);

  BatchRunner runner(snapshot_);
  obs::AggregateRecorder recorder;
  runner.set_recorder(&recorder);
  BatchLimits limits;
  limits.num_threads = 1;  // every query reuses one worker searcher slot
  const auto batch = runner.RunCst(queries_, 3, limits);
  obs::AggregateRecorder::Totals totals = recorder.Snapshot();
  EXPECT_EQ(totals.queries, want.queries);
  EXPECT_EQ(totals.fallbacks, want.fallbacks);
  // The recorded per-phase sums must agree with the batch's own stat
  // aggregation — the recorder sees each query's telemetry exactly once.
  EXPECT_EQ(totals.sum.TotalVisited(), batch.stats.visited_vertices);
  EXPECT_EQ(totals.sum.TotalScanned(), batch.stats.scanned_edges);
  EXPECT_EQ(totals.sum.answer_size, batch.stats.total_answer_size);

  // A second batch on the same runner doubles the totals exactly, and a
  // multi-threaded batch lands the same counts (worker-count invariant).
  limits.num_threads = 4;
  runner.RunCst(queries_, 3, limits);
  totals = recorder.Snapshot();
  EXPECT_EQ(totals.queries, 2 * want.queries);
  EXPECT_EQ(totals.sum.TotalVisited(), 2 * batch.stats.visited_vertices);

  // Detaching restores the null sink: nothing further is recorded.
  runner.set_recorder(nullptr);
  runner.RunCst(queries_, 3, limits);
  EXPECT_EQ(recorder.Snapshot().queries, 2 * want.queries);
}

TEST_F(BatchRunnerTest, StatsAggregateThePerQueryCounters) {
  // The batch totals must equal the sum of the per-query telemetry,
  // regardless of thread count (each query's telemetry is deterministic).
  CommunitySearcher searcher(snapshot_);
  BatchStats expected;
  for (VertexId v : queries_) {
    const SearchResult result = searcher.Cst(v, 3);
    expected.visited_vertices += result.telemetry.TotalVisited();
    expected.scanned_edges += result.telemetry.TotalScanned();
    expected.total_answer_size += result.telemetry.answer_size;
    if (result.has_value()) ++expected.answered;
  }

  BatchRunner runner(snapshot_);
  for (unsigned threads : {1u, 4u}) {
    BatchLimits limits;
    limits.num_threads = threads;
    const auto batch = runner.RunCst(queries_, 3, limits);
    EXPECT_EQ(batch.stats.completed, queries_.size());
    EXPECT_EQ(batch.stats.answered, expected.answered);
    EXPECT_EQ(batch.stats.visited_vertices, expected.visited_vertices);
    EXPECT_EQ(batch.stats.scanned_edges, expected.scanned_edges);
    EXPECT_EQ(batch.stats.total_answer_size, expected.total_answer_size);
    EXPECT_GE(batch.stats.wall_ms, 0.0);
  }
}

TEST_F(BatchRunnerTest, CancelledBatchReportsCompletedPrefix) {
  BatchRunner runner(snapshot_);
  std::atomic<bool> cancel{true};
  BatchLimits limits;
  limits.cancel = &cancel;
  const auto batch = runner.RunCst(queries_, 3, limits);
  EXPECT_TRUE(batch.stats.cancelled);
  EXPECT_EQ(batch.stats.completed, 0u);
  EXPECT_EQ(batch.stats.CountOf(Termination::kCancelled), queries_.size());
  for (const auto& result : batch.results) {
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(result.status, Termination::kCancelled);
  }
}

TEST_F(BatchRunnerTest, EmptyBatchIsANoOp) {
  BatchRunner runner(snapshot_);
  const auto cst = runner.RunCst({}, 3);
  EXPECT_TRUE(cst.results.empty());
  EXPECT_EQ(cst.stats.completed, 0u);
  const auto csm = runner.RunCsm({});
  EXPECT_TRUE(csm.results.empty());
}

TEST(BatchRunnerDeadlineTest, DeadlineYieldsCompletedPrefix) {
  // A graph big enough that thousands of CSM queries cannot finish in a
  // fraction of a millisecond, so the deadline reliably truncates.
  gen::LfrParams params;
  params.n = 3000;
  params.min_degree = 4;
  params.max_degree = 40;
  params.min_community = 20;
  params.max_community = 80;
  params.seed = 77;
  const auto snapshot = SnapshotOf(gen::Lfr(params).graph);
  const Graph& g = snapshot->graph;

  std::vector<VertexId> queries;
  for (int rep = 0; rep < 4; ++rep) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) queries.push_back(v);
  }

  BatchRunner runner(snapshot);
  BatchLimits limits;
  limits.deadline_ms = 0.05;
  const auto batch = runner.RunCsm(queries, limits);
  ASSERT_LT(batch.stats.completed, queries.size());
  EXPECT_TRUE(batch.stats.deadline_hit);

  // Queries in the executed prefix either finished (and then match the
  // serial reference) or were interrupted mid-search by the batch
  // deadline, which now reaches into in-flight queries via their guards.
  CommunitySearcher searcher(snapshot);
  for (size_t i = 0; i < batch.stats.completed; ++i) {
    const SearchResult& result = batch.results[i];
    if (result.Found()) {
      SCOPED_TRACE("i=" + std::to_string(i));
      ExpectSameAnswer(result, searcher.Csm(queries[i]));
    } else {
      EXPECT_EQ(result.status, Termination::kDeadline) << "i=" << i;
    }
  }
  // Never-started tail slots report the batch stop cause with the
  // singleton query vertex as the trivial partial answer.
  for (size_t i = batch.stats.completed; i < queries.size(); ++i) {
    const SearchResult& result = batch.results[i];
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(result.status, Termination::kDeadline);
    ASSERT_EQ(result.best_so_far.members.size(), 1u);
    EXPECT_EQ(result.best_so_far.members[0], queries[i]);
  }
}

// Batch answers equal the serial searcher's for any thread count; 0 is
// the whole pool.
class ParallelBatchTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelBatchTest, CstBatchMatchesSequential) {
  const auto snapshot = SnapshotOf(gen::ErdosRenyiGnp(200, 0.05, 7));
  BatchRunner runner(snapshot);
  ExpectBatchMatchesSearcher(runner, snapshot, EveryNth(snapshot->graph, 3),
                             3, GetParam());
}

TEST_P(ParallelBatchTest, CsmBatchMatchesSequential) {
  const auto snapshot = LfrSnapshot(400, 5);
  BatchRunner runner(snapshot);
  ExpectBatchMatchesSearcher(runner, snapshot, EveryNth(snapshot->graph, 11),
                             std::nullopt, GetParam());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelBatchTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u));

TEST(ParallelBatchTest, CstBatchByteIdenticalAcrossThreadCounts) {
  const auto snapshot = SnapshotOf(gen::ErdosRenyiGnp(250, 0.05, 23));
  BatchRunner runner(snapshot);
  for (unsigned threads : {1u, 2u, 8u}) {
    ExpectBatchMatchesSearcher(runner, snapshot, EveryNth(snapshot->graph, 1),
                               4, threads);
  }
}

TEST(ParallelBatchTest, CsmBatchByteIdenticalAcrossThreadCounts) {
  const auto snapshot = SnapshotOf(gen::ErdosRenyiGnp(200, 0.06, 29));
  BatchRunner runner(snapshot);
  for (unsigned threads : {1u, 2u, 8u}) {
    ExpectBatchMatchesSearcher(runner, snapshot, EveryNth(snapshot->graph, 2),
                               std::nullopt, threads);
  }
}

TEST(ParallelBatchTest, EmptyQueriesAndSingletons) {
  const auto snapshot = SnapshotOf(gen::ErdosRenyiGnp(30, 0.2, 1));
  BatchRunner runner(snapshot);
  EXPECT_TRUE(runner.RunCst({}, 2).results.empty());
  ExpectBatchMatchesSearcher(runner, snapshot, {5}, 2, 0);
  // More threads than work items must not crash or deadlock.
  ExpectBatchMatchesSearcher(runner, snapshot, {1, 2}, 2, 16);
}

}  // namespace
}  // namespace locs
