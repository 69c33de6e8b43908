// Tests for the exec subsystem: the persistent Executor (exception
// capture, deadlines, cancellation, lazy start, reuse) and the
// BatchRunner (thread-count-invariant results, stat aggregation,
// per-worker solver reuse across batches).

#include "exec/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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
      hits.size(), [&](unsigned, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
  EXPECT_EQ(run.items_run, hits.size());
  EXPECT_EQ(run.cause, Executor::StopCause::kCompleted);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, LazyStartAndSerialExecutorNeverSpawns) {
  Executor serial(1);
  EXPECT_FALSE(serial.started());
  int sum = 0;
  serial.ParallelFor(10, [&](unsigned worker, size_t begin, size_t end) {
    EXPECT_EQ(worker, 0u);
    for (size_t i = begin; i < end; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
  EXPECT_FALSE(serial.started());

  Executor pool(4);
  EXPECT_FALSE(pool.started());
  // A single item never needs the pool either.
  pool.ParallelFor(1, [](unsigned, size_t, size_t) {});
  EXPECT_FALSE(pool.started());
  pool.ParallelFor(100, [](unsigned, size_t, size_t) {});
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
                         [&](unsigned, size_t begin, size_t end) {
                           if (begin <= 17 && 17 < end) {
                             throw std::runtime_error("solver stub blew up");
                           }
                         }),
        std::runtime_error);
    // The pool is intact and processes a full batch right after.
    std::atomic<size_t> done{0};
    const auto run = exec.ParallelFor(
        128, [&](unsigned, size_t begin, size_t end) {
          done.fetch_add(end - begin, std::memory_order_relaxed);
        });
    EXPECT_EQ(run.items_run, 128u);
    EXPECT_EQ(done.load(), 128u);
  }
}

TEST(ExecutorTest, ThrowOnEveryItemStillRethrowsOnce) {
  Executor exec(2);
  EXPECT_THROW(exec.ParallelFor(64,
                                [](unsigned, size_t, size_t) {
                                  throw std::logic_error("always");
                                }),
               std::logic_error);
}

TEST(ExecutorTest, DeadlineStopsEarlyWithPrefixSemantics) {
  Executor exec(4);
  std::vector<std::atomic<int>> hits(200);
  Executor::RunOptions options;
  options.chunk_size = 1;
  options.deadline_ms = 10.0;
  const auto run = exec.ParallelFor(
      hits.size(),
      [&](unsigned, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
        }
      },
      options);
  EXPECT_EQ(run.cause, Executor::StopCause::kDeadline);
  EXPECT_LT(run.items_run, hits.size());
  // Claimed chunks always complete: the executed items are exactly the
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
      [&](unsigned, size_t begin, size_t end) {
        ran.fetch_add(end - begin, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(run.items_run, 0u);
  EXPECT_EQ(run.cause, Executor::StopCause::kCancelled);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecutorTest, CancelMidFlightStops) {
  Executor exec(4);
  std::atomic<bool> cancel{false};
  Executor::RunOptions options;
  options.chunk_size = 1;
  options.cancel = &cancel;
  const auto run = exec.ParallelFor(
      10000,
      [&](unsigned, size_t begin, size_t) {
        if (begin >= 8) cancel.store(true, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(run.cause, Executor::StopCause::kCancelled);
  EXPECT_LT(run.items_run, 10000u);
}

TEST(ExecutorTest, MaxWorkersCapsWorkerIds) {
  Executor exec(8);
  Executor::RunOptions options;
  options.max_workers = 2;
  options.chunk_size = 1;
  locs::Mutex mutex;
  std::set<unsigned> seen;
  exec.ParallelFor(
      500,
      [&](unsigned worker, size_t, size_t) {
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
  const auto run = exec.ParallelFor(16, [&](unsigned, size_t, size_t) {
    // A task that re-enters the same executor must not deadlock.
    exec.ParallelFor(8, [&](unsigned worker, size_t begin, size_t end) {
      EXPECT_EQ(worker, 0u);
      inner_total.fetch_add(end - begin, std::memory_order_relaxed);
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
        8, [&](unsigned, size_t begin, size_t end) {
          ran.fetch_add(end - begin, std::memory_order_relaxed);
        });
    ASSERT_EQ(run.items_run, 8u);
    ASSERT_EQ(ran.load(), 8u);
  }
}

TEST(ExecutorTest, SubmitRunsDetachedTasks) {
  Executor exec(4);
  std::atomic<int> done{0};
  constexpr int kTasks = 32;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(exec.Submit([&] {
      done.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ExecutorTest, SerialExecutorRejectsSubmit) {
  // A 1-wide executor has no pool thread to detach onto; Submit must
  // refuse rather than run inline (the caller would block on itself).
  Executor serial(1);
  EXPECT_FALSE(serial.Submit([] {}));
  EXPECT_FALSE(serial.started());
}

TEST(ExecutorTest, ParallelForCompletesWithWorkersParkedInTasks) {
  // Park every pool thread in a long-lived task, then run a batch: the
  // calling thread alone must still complete it (the serving layer's
  // sessions-plus-queries coexistence guarantee).
  Executor exec(3);
  std::atomic<bool> release{false};
  std::atomic<int> parked{0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(exec.Submit([&] {
      parked.fetch_add(1);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }));
  }
  while (parked.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(exec.active_tasks(), 2u);
  std::atomic<size_t> items{0};
  const auto run = exec.ParallelFor(
      100, [&](unsigned, size_t begin, size_t end) {
        items.fetch_add(end - begin, std::memory_order_relaxed);
      });
  EXPECT_EQ(run.items_run, 100u);
  EXPECT_EQ(items.load(), 100u);
  release.store(true);
  while (exec.active_tasks() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ExecutorTest, ThrowingSubmittedTaskIsSwallowed) {
  Executor exec(2);
  std::atomic<bool> threw{false};
  ASSERT_TRUE(exec.Submit([&] {
    threw.store(true);
    throw std::runtime_error("detached");
  }));
  while (!threw.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The worker survives the escaped exception and serves new work.
  std::atomic<int> after{0};
  ASSERT_TRUE(exec.Submit([&] { after.store(1); }));
  while (after.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(after.load(), 1);
}

TEST(ExecutorTest, ZeroItemsIsANoOp) {
  Executor exec(4);
  const auto run =
      exec.ParallelFor(0, [](unsigned, size_t, size_t) { FAIL(); });
  EXPECT_EQ(run.items_run, 0u);
  EXPECT_EQ(run.cause, Executor::StopCause::kCompleted);
}

class BatchRunnerTest : public ::testing::Test {
 protected:
  BatchRunnerTest()
      : graph_(gen::ErdosRenyiGnp(300, 0.04, 17)),
        facts_(GraphFacts::Compute(graph_)),
        ordered_(graph_) {
    for (VertexId v = 0; v < graph_.NumVertices(); v += 2) {
      queries_.push_back(v);
    }
  }

  Graph graph_;
  GraphFacts facts_;
  OrderedAdjacency ordered_;
  std::vector<VertexId> queries_;
};

TEST_F(BatchRunnerTest, CstResultsAreByteIdenticalAcrossThreadCounts) {
  // Serial reference: one reused solver, plain loop.
  LocalCstSolver solver(graph_, &ordered_, &facts_);
  std::vector<std::optional<Community>> expected;
  for (VertexId v : queries_) {
    expected.push_back(solver.Solve(v, 3).community);
  }

  BatchRunner runner(graph_, &ordered_, &facts_);
  for (unsigned threads : {1u, 2u, 8u}) {
    BatchLimits limits;
    limits.num_threads = threads;
    const auto batch = runner.RunCst(queries_, 3, {}, limits);
    ASSERT_EQ(batch.results.size(), expected.size());
    EXPECT_EQ(batch.stats.completed, queries_.size());
    EXPECT_FALSE(batch.stats.deadline_hit);
    EXPECT_EQ(batch.stats.CountOf(Termination::kFound) +
                  batch.stats.CountOf(Termination::kNotExists),
              queries_.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(batch.results[i].has_value(), expected[i].has_value())
          << "threads=" << threads << " i=" << i;
      if (!expected[i].has_value()) continue;
      // Byte-identical: same members in the same order, same goodness.
      EXPECT_EQ(batch.results[i]->members, expected[i]->members)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(batch.results[i]->min_degree, expected[i]->min_degree);
    }
  }
}

// Given the snapshot's core numbers (as `locs_cli batch` passes them),
// batch CST answers exactly as CommunitySearcher::Cst, also on the
// queries where the paper solver falls back and the two answers part.
TEST_F(BatchRunnerTest, CstWithCoreNumbersMatchesTheSearcherOnFallbacks) {
  const auto snapshot =
      std::make_shared<const Snapshot>(Snapshot::Build(graph_));
  CommunitySearcher searcher(snapshot);
  LocalCstSolver paper(graph_, &ordered_, &facts_);
  BatchRunner runner(snapshot->graph, &snapshot->ordered, &snapshot->facts,
                     /*executor=*/nullptr,
                     snapshot->index.core_numbers().span());
  uint64_t fallbacks = 0;
  for (uint32_t k = 3; k <= snapshot->index.Degeneracy(); ++k) {
    const auto batch = runner.RunCst(queries_, k);
    EXPECT_EQ(batch.stats.global_fallbacks, 0u) << "k=" << k;
    for (size_t i = 0; i < queries_.size(); ++i) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " v=" + std::to_string(queries_[i]));
      fallbacks += paper.Solve(queries_[i], k).telemetry.used_global_fallback;
      const SearchResult served = searcher.Cst(queries_[i], k);
      ASSERT_EQ(batch.results[i].status, served.status);
      if (!served.has_value()) continue;
      EXPECT_EQ(batch.results[i]->members, served->members);
      EXPECT_EQ(batch.results[i]->min_degree, served->min_degree);
    }
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST_F(BatchRunnerTest, CsmResultsAreByteIdenticalAcrossThreadCounts) {
  LocalCsmSolver solver(graph_, &ordered_, &facts_);
  std::vector<Community> expected;
  for (VertexId v : queries_) expected.push_back(*solver.Solve(v));

  BatchRunner runner(graph_, &ordered_, &facts_);
  for (unsigned threads : {1u, 2u, 8u}) {
    BatchLimits limits;
    limits.num_threads = threads;
    const auto batch = runner.RunCsm(queries_, {}, limits);
    ASSERT_EQ(batch.results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch.results[i]->members, expected[i].members)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(batch.results[i]->min_degree, expected[i].min_degree);
    }
  }
}

TEST_F(BatchRunnerTest, UnrepresentableDeadlineCompletesEveryQuery) {
  // A batch deadline past the clock's range saturates to "never" in
  // both the executor and every query guard; it must not expire at once.
  BatchRunner runner(graph_, &ordered_, &facts_);
  BatchLimits limits;
  limits.deadline_ms = 1e300;
  limits.query_deadline_ms = 1e300;
  const auto batch = runner.RunCst(queries_, 3, {}, limits);
  EXPECT_EQ(batch.stats.completed, queries_.size());
  EXPECT_FALSE(batch.stats.deadline_hit);
  EXPECT_EQ(batch.stats.CountOf(Termination::kFound) +
                batch.stats.CountOf(Termination::kNotExists),
            queries_.size());
}

TEST_F(BatchRunnerTest, RepeatedBatchesOnOneRunnerStayIdentical) {
  // Per-worker solvers persist across batches; the O(1) epoch reset must
  // keep later batches byte-identical to the first.
  BatchRunner runner(graph_, &ordered_, &facts_);
  const auto first = runner.RunCst(queries_, 3);
  for (int round = 0; round < 3; ++round) {
    const auto again = runner.RunCst(queries_, 3);
    ASSERT_EQ(again.results.size(), first.results.size());
    for (size_t i = 0; i < first.results.size(); ++i) {
      ASSERT_EQ(again.results[i].has_value(), first.results[i].has_value());
      if (first.results[i].has_value()) {
        EXPECT_EQ(again.results[i]->members, first.results[i]->members);
      }
    }
    EXPECT_EQ(again.stats.visited_vertices, first.stats.visited_vertices);
    EXPECT_EQ(again.stats.scanned_edges, first.stats.scanned_edges);
  }
}

TEST_F(BatchRunnerTest, ReusedWorkerSolverResetsTelemetryBetweenQueries) {
  // One worker thread means every query funnels through the same reused
  // solver slot. Each query's telemetry must match a brand-new solver's
  // — any counter carried over from the previous query would show up as
  // an inflated phase total here.
  LocalCstSolver reused(graph_, &ordered_, &facts_);
  LocalCsmSolver reused_csm(graph_, &ordered_, &facts_);
  for (int round = 0; round < 2; ++round) {
    for (const VertexId v : {queries_[0], queries_[1], queries_[7]}) {
      SCOPED_TRACE("round=" + std::to_string(round) +
                   " v=" + std::to_string(v));
      const SearchResult got = reused.Solve(v, 3);
      LocalCstSolver fresh(graph_, &ordered_, &facts_);
      const SearchResult want = fresh.Solve(v, 3);
      for (size_t i = 0; i < obs::kNumPhases; ++i) {
        EXPECT_EQ(got.telemetry.phases[i].vertices_visited,
                  want.telemetry.phases[i].vertices_visited);
        EXPECT_EQ(got.telemetry.phases[i].edges_scanned,
                  want.telemetry.phases[i].edges_scanned);
        EXPECT_EQ(got.telemetry.phases[i].entered,
                  want.telemetry.phases[i].entered);
      }
      EXPECT_EQ(got.telemetry.answer_size, want.telemetry.answer_size);

      const SearchResult got_csm = reused_csm.Solve(v);
      LocalCsmSolver fresh_csm(graph_, &ordered_, &facts_);
      const SearchResult want_csm = fresh_csm.Solve(v);
      EXPECT_EQ(got_csm.telemetry.TotalVisited(),
                want_csm.telemetry.TotalVisited());
      EXPECT_EQ(got_csm.telemetry.TotalScanned(),
                want_csm.telemetry.TotalScanned());
    }
  }
}

TEST_F(BatchRunnerTest, RecorderSeesEveryQueryAcrossBatches) {
  BatchRunner runner(graph_, &ordered_, &facts_);
  obs::AggregateRecorder recorder;
  runner.set_recorder(&recorder);
  BatchLimits limits;
  limits.num_threads = 1;  // every query reuses one worker solver slot
  const auto batch = runner.RunCst(queries_, 3, {}, limits);
  obs::AggregateRecorder::Totals totals = recorder.Snapshot();
  EXPECT_EQ(totals.queries, queries_.size());
  // The recorded per-phase sums must agree with the batch's own stat
  // aggregation — the recorder sees each query's telemetry exactly once.
  EXPECT_EQ(totals.sum.TotalVisited(), batch.stats.visited_vertices);
  EXPECT_EQ(totals.sum.TotalScanned(), batch.stats.scanned_edges);
  EXPECT_EQ(totals.fallbacks, batch.stats.global_fallbacks);
  EXPECT_EQ(totals.sum.answer_size, batch.stats.total_answer_size);

  // A second batch on the same runner doubles the totals exactly, and a
  // multi-threaded batch lands the same counts (worker-count invariant).
  limits.num_threads = 4;
  runner.RunCst(queries_, 3, {}, limits);
  totals = recorder.Snapshot();
  EXPECT_EQ(totals.queries, 2 * queries_.size());
  EXPECT_EQ(totals.sum.TotalVisited(), 2 * batch.stats.visited_vertices);

  // Detaching restores the null sink: nothing further is recorded.
  runner.set_recorder(nullptr);
  runner.RunCst(queries_, 3, {}, limits);
  EXPECT_EQ(recorder.Snapshot().queries, 2 * queries_.size());
}

TEST_F(BatchRunnerTest, StatsAggregateThePerQueryCounters) {
  // The batch totals must equal the sum of per-query QueryStats,
  // regardless of thread count (each query's stats are deterministic).
  LocalCstSolver solver(graph_, &ordered_, &facts_);
  BatchStats expected;
  for (VertexId v : queries_) {
    QueryStats stats;
    const auto community = solver.Solve(v, 3, {}, &stats);
    expected.visited_vertices += stats.visited_vertices;
    expected.scanned_edges += stats.scanned_edges;
    expected.global_fallbacks += stats.used_global_fallback ? 1 : 0;
    expected.total_answer_size += stats.answer_size;
    if (community.has_value()) ++expected.answered;
  }

  BatchRunner runner(graph_, &ordered_, &facts_);
  for (unsigned threads : {1u, 4u}) {
    BatchLimits limits;
    limits.num_threads = threads;
    const auto batch = runner.RunCst(queries_, 3, {}, limits);
    EXPECT_EQ(batch.stats.completed, queries_.size());
    EXPECT_EQ(batch.stats.answered, expected.answered);
    EXPECT_EQ(batch.stats.visited_vertices, expected.visited_vertices);
    EXPECT_EQ(batch.stats.scanned_edges, expected.scanned_edges);
    EXPECT_EQ(batch.stats.global_fallbacks, expected.global_fallbacks);
    EXPECT_EQ(batch.stats.total_answer_size, expected.total_answer_size);
    EXPECT_GE(batch.stats.wall_ms, 0.0);
  }
}

TEST_F(BatchRunnerTest, CancelledBatchReportsCompletedPrefix) {
  BatchRunner runner(graph_, &ordered_, &facts_);
  std::atomic<bool> cancel{true};
  BatchLimits limits;
  limits.cancel = &cancel;
  const auto batch = runner.RunCst(queries_, 3, {}, limits);
  EXPECT_TRUE(batch.stats.cancelled);
  EXPECT_EQ(batch.stats.completed, 0u);
  EXPECT_EQ(batch.stats.CountOf(Termination::kCancelled), queries_.size());
  for (const auto& result : batch.results) {
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(result.status, Termination::kCancelled);
  }
}

TEST_F(BatchRunnerTest, EmptyBatchIsANoOp) {
  BatchRunner runner(graph_, &ordered_, &facts_);
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
  Graph g = gen::Lfr(params).graph;
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);

  std::vector<VertexId> queries;
  for (int rep = 0; rep < 4; ++rep) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) queries.push_back(v);
  }

  BatchRunner runner(g, &ordered, &facts);
  BatchLimits limits;
  limits.deadline_ms = 0.05;
  const auto batch = runner.RunCsm(queries, {}, limits);
  ASSERT_LT(batch.stats.completed, queries.size());
  EXPECT_TRUE(batch.stats.deadline_hit);

  // Queries in the executed prefix either finished (and then match the
  // serial reference) or were interrupted mid-search by the batch
  // deadline, which now reaches into in-flight queries via their guards.
  LocalCsmSolver solver(g, &ordered, &facts);
  for (size_t i = 0; i < batch.stats.completed; ++i) {
    const SearchResult& result = batch.results[i];
    if (result.Found()) {
      EXPECT_EQ(result->min_degree, solver.Solve(queries[i])->min_degree)
          << "i=" << i;
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

}  // namespace
}  // namespace locs
