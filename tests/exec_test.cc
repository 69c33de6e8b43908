// Tests for the exec subsystem, BatchRunner: answers equal to
// CommunitySearcher's, thread-count invariance, stat aggregation,
// per-worker searcher reuse across batches, and how a batch executes
// (every query claimed once, exceptions rethrown after the join,
// deadline stops with prefix semantics, the worker-thread
// cap), driven through test recorders, whose Record() runs inside the
// worker loop.

#include "exec/batch_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
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
#include "gen/erdos_renyi.h"
#include "util/thread_annotations.h"
#include "gen/lfr.h"
#include "obs/recorder.h"

namespace locs {
namespace {

/// Byte-identical: same status, same members in the same order, same δ.
void ExpectSameAnswer(const SearchResult& got, const SearchResult& want) {
  ASSERT_EQ(got.status, want.status);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) return;
  EXPECT_EQ(got->members, want->members);
  EXPECT_EQ(got->min_degree, want->min_degree);
}

/// Runs `queries` as one batch on `runner` with `threads` workers (0 = the
/// hardware's) and checks every answer against a serial loop of one
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
  // both the claim loop and every query guard; it must not expire at once.
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

TEST_F(BatchRunnerTest, EmptyBatchIsANoOp) {
  BatchRunner runner(snapshot_);
  const auto cst = runner.RunCst({}, 3);
  EXPECT_TRUE(cst.results.empty());
  EXPECT_EQ(cst.stats.completed, 0u);
  const auto csm = runner.RunCsm({});
  EXPECT_TRUE(csm.results.empty());
}

/// A recorder that hands each Record() call, numbered from 1, to a test
/// callback. Record() runs on the worker that solved the query, so the
/// callback sees the worker loop from inside.
class CallbackRecorder : public obs::Recorder {
 public:
  explicit CallbackRecorder(std::function<void(uint64_t)> on_record)
      : on_record_(std::move(on_record)) {}

  void Record(const obs::QueryTelemetry&) override {
    on_record_(calls_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::function<void(uint64_t)> on_record_;
  std::atomic<uint64_t> calls_{0};
};

/// How a batch executes: claiming, exceptions, stop causes, threads.
/// Every CSM query reaches the recorder, so the tests run CSM batches.
class ExecutorTest : public BatchRunnerTest {
 protected:
  static BatchLimits Threads(unsigned threads) {
    BatchLimits limits;
    limits.num_threads = threads;
    return limits;
  }

  /// Results [0, completed) either match the serial searcher or were
  /// interrupted with `cause`; the never-started tail carries `cause`
  /// and the singleton query vertex.
  void ExpectPrefix(const BatchResult& batch, Termination cause) {
    CommunitySearcher searcher(snapshot_);
    for (size_t i = 0; i < queries_.size(); ++i) {
      SCOPED_TRACE("i=" + std::to_string(i));
      const SearchResult& result = batch.results[i];
      if (i < batch.stats.completed && result.Found()) {
        ExpectSameAnswer(result, searcher.Csm(queries_[i]));
        continue;
      }
      EXPECT_EQ(result.status, cause);
      if (i >= batch.stats.completed) {
        ASSERT_EQ(result.best_so_far.members.size(), 1u);
        EXPECT_EQ(result.best_so_far.members[0], queries_[i]);
      }
    }
  }
};

TEST_F(ExecutorTest, RunsEveryItemExactlyOnce) {
  CallbackRecorder recorder([](uint64_t) {});
  BatchRunner runner(snapshot_);
  runner.set_recorder(&recorder);
  const auto batch = runner.RunCsm(queries_, Threads(4));
  EXPECT_EQ(batch.stats.completed, queries_.size());
  EXPECT_FALSE(batch.stats.deadline_hit);
  EXPECT_EQ(recorder.calls(), queries_.size());
}

// A throwing solve (here a recorder; in production std::bad_alloc) must
// not leave joinable threads behind or end in std::terminate: the first
// exception is rethrown on the caller once every worker has joined, and
// the runner stays usable.
TEST_F(ExecutorTest, ThrowingTaskPropagatesAndPoolSurvives) {
  std::atomic<uint64_t> throw_at{17};
  CallbackRecorder recorder([&](uint64_t call) {
    if (call == throw_at.load()) {
      throw std::runtime_error("recorder blew up");
    }
  });
  BatchRunner runner(snapshot_);
  runner.set_recorder(&recorder);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    throw_at.store(recorder.calls() + 17);
    EXPECT_THROW(runner.RunCsm(queries_, Threads(4)), std::runtime_error);
    // Joined: no worker records anything after the rethrow.
    const uint64_t calls = recorder.calls();
    EXPECT_LT(calls, throw_at.load() + queries_.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(recorder.calls(), calls);
    // The same runner answers the next batch in full, identically.
    ExpectBatchMatchesSearcher(runner, snapshot_, queries_, std::nullopt,
                               4);
  }
}

TEST_F(ExecutorTest, ThrowOnEveryItemStillRethrowsOnce) {
  CallbackRecorder recorder(
      [](uint64_t) { throw std::logic_error("always"); });
  BatchRunner runner(snapshot_);
  runner.set_recorder(&recorder);
  EXPECT_THROW(runner.RunCsm(queries_, Threads(2)), std::logic_error);
  // Each worker stops at its first throw.
  EXPECT_LE(recorder.calls(), 2u);
}

TEST_F(ExecutorTest, DeadlineStopsEarlyWithPrefixSemantics) {
  CallbackRecorder recorder([](uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  });
  BatchRunner runner(snapshot_);
  runner.set_recorder(&recorder);
  BatchLimits limits = Threads(4);
  limits.deadline_ms = 10.0;
  const auto batch = runner.RunCsm(queries_, limits);
  EXPECT_TRUE(batch.stats.deadline_hit);
  ASSERT_LT(batch.stats.completed, queries_.size());
  // A claimed query always finishes: exactly the prefix was recorded.
  EXPECT_EQ(recorder.calls(), batch.stats.completed);
  ExpectPrefix(batch, Termination::kDeadline);
}

TEST_F(ExecutorTest, MaxWorkersCapsWorkerIds) {
  Mutex mutex;
  std::set<std::thread::id> seen;
  CallbackRecorder recorder([&](uint64_t) {
    MutexLock lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  BatchRunner runner(snapshot_);
  runner.set_recorder(&recorder);
  const std::vector<VertexId> two = {queries_[0], queries_[1]};
  for (const auto& [threads, batch] :
       std::vector<std::pair<unsigned, std::vector<VertexId>>>{
           {1, queries_}, {2, queries_}, {3, queries_}, {16, two}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      MutexLock lock(mutex);
      seen.clear();
    }
    EXPECT_EQ(runner.RunCsm(batch, Threads(threads)).stats.completed,
              batch.size());
    MutexLock lock(mutex);
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), std::min<size_t>(threads, batch.size()));
    // The calling thread runs as worker 0.
    if (threads == 1) {
      EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
    }
  }
}

TEST_F(ExecutorTest, ZeroItemsIsANoOp) {
  CallbackRecorder recorder([](uint64_t) { FAIL(); });
  BatchRunner runner(snapshot_);
  runner.set_recorder(&recorder);
  const auto batch = runner.RunCsm({}, Threads(4));
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.stats.completed, 0u);
  EXPECT_FALSE(batch.stats.deadline_hit);
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
// the hardware's.
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
