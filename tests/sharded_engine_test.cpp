// Determinism and semantics of the partitioned engine (docs/sharding.md):
// the shards x threads fingerprint matrix, mailbox merge ordering,
// cross-shard cancellation, lookahead windows, and the invoke_on hop.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "check/spec.hpp"
#include "sim/engine.hpp"
#include "sim/storm.hpp"

namespace flotilla::sim {
namespace {

// --- the tentpole gate: shards x threads fingerprint matrix ---------------

// Same seed => byte-identical storm fingerprints for every combination of
// shards in {1,2,4} x threads in {1,2,4}, at zero lookahead (the mode the
// full stack runs under) and at a positive conservative window. Run twice
// per cell to also catch run-to-run nondeterminism within a cell.
TEST(ShardMatrix, FingerprintInvariantAcrossShardsAndThreads) {
  for (const Time lookahead : {0.0, 1.0e-3}) {
    StormConfig base;
    base.actors = 48;
    base.steps = 60;
    base.seed = 1234;
    base.lookahead = lookahead;
    base.shards = 1;
    base.threads = 1;
    const StormResult reference = run_storm(base);
    ASSERT_GT(reference.events, 0u);
    for (const int shards : {1, 2, 4}) {
      for (const int threads : {1, 2, 4}) {
        StormConfig config = base;
        config.shards = shards;
        config.threads = threads;
        const StormResult once = run_storm(config);
        const StormResult twice = run_storm(config);
        EXPECT_EQ(once.fingerprint, reference.fingerprint)
            << "shards=" << shards << " threads=" << threads
            << " lookahead=" << lookahead;
        EXPECT_EQ(once.events, reference.events)
            << "shards=" << shards << " threads=" << threads
            << " lookahead=" << lookahead;
        EXPECT_EQ(once.makespan, reference.makespan)
            << "shards=" << shards << " threads=" << threads
            << " lookahead=" << lookahead;
        EXPECT_EQ(once.fingerprint, twice.fingerprint)
            << "run-to-run divergence at shards=" << shards
            << " threads=" << threads << " lookahead=" << lookahead;
      }
    }
  }
}

TEST(ShardMatrix, DifferentSeedsDiverge) {
  StormConfig a;
  a.seed = 7;
  StormConfig b = a;
  b.seed = 8;
  EXPECT_NE(run_storm(a).fingerprint, run_storm(b).fingerprint);
}

// --- basic sharded semantics ----------------------------------------------

TEST(ShardedEngine, EventsOnDifferentShardsAllRun) {
  Engine engine(Engine::Config{4, 1, 0.0});
  std::vector<int> order;
  for (int s = 0; s < 4; ++s) {
    engine.at(s, 0.1 * (s + 1), [&order, s] { order.push_back(s); });
  }
  EXPECT_EQ(engine.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(engine.processed(), 4u);
  EXPECT_TRUE(engine.empty());
}

TEST(ShardedEngine, SameTimestampDrainsAllShardsInShardOrder) {
  Engine engine(Engine::Config{3, 1, 0.0});
  std::vector<int> order;
  for (int s = 2; s >= 0; --s) {  // insertion order deliberately reversed
    engine.at(s, 1.0, [&order, s] { order.push_back(s); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ShardedEngine, CurrentShardTracksExecutingEvent) {
  Engine engine(Engine::Config{3, 1, 0.0});
  EXPECT_EQ(engine.current_shard(), kControlShard);
  std::vector<ShardId> seen;
  for (int s = 0; s < 3; ++s) {
    engine.at(s, 1.0 + s, [&] { seen.push_back(engine.current_shard()); });
  }
  engine.run();
  EXPECT_EQ(seen, (std::vector<ShardId>{0, 1, 2}));
  EXPECT_EQ(engine.current_shard(), kControlShard);
}

TEST(ShardedEngine, NowIsShardLocalInsideCallbacks) {
  Engine engine(Engine::Config{2, 1, 5.0});  // wide window
  std::vector<Time> nows;
  engine.at(0, 1.0, [&] { nows.push_back(engine.now()); });
  engine.at(1, 2.0, [&] { nows.push_back(engine.now()); });
  engine.at(0, 3.0, [&] { nows.push_back(engine.now()); });
  engine.run();
  EXPECT_EQ(nows, (std::vector<Time>{1.0, 3.0, 2.0}));  // shard 0 drains first
  EXPECT_EQ(engine.now(), 3.0);  // committed clock is the max
}

TEST(ShardedEngine, CrossShardSendDeliversAtRequestedTime) {
  Engine engine(Engine::Config{2, 1, 0.0});
  Time delivered = -1.0;
  engine.at(0, 1.0, [&] {
    engine.at(1, 2.5, [&] { delivered = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(delivered, 2.5);
}

TEST(ShardedEngine, CrossShardSendInsidePastClampsToSenderNow) {
  Engine engine(Engine::Config{2, 1, 0.0});
  Time delivered = -1.0;
  engine.at(0, 1.0, [&] {
    engine.at(1, 0.25, [&] { delivered = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_EQ(delivered, 1.0);
}

// Two shards send to the same destination at the same delivery time: the
// merge is source-major (then FIFO), independent of drain interleaving.
TEST(ShardedEngine, MailboxMergeOrdersBySourceThenFifo) {
  Engine engine(Engine::Config{3, 1, 0.0});
  std::vector<std::string> order;
  engine.at(1, 1.0, [&] {
    engine.at(0, 2.0, [&] { order.push_back("from1.a"); });
    engine.at(0, 2.0, [&] { order.push_back("from1.b"); });
  });
  engine.at(2, 1.0, [&] {
    engine.at(0, 2.0, [&] { order.push_back("from2.a"); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"from1.a", "from1.b", "from2.a"}));
}

TEST(ShardedEngine, CancelInFlightCrossShardSend) {
  Engine engine(Engine::Config{2, 1, 0.0});
  bool fired = false;
  engine.at(0, 1.0, [&] {
    const Engine::EventId id = engine.at(1, 2.0, [&] { fired = true; });
    EXPECT_TRUE(engine.cancel(id));
    EXPECT_FALSE(engine.cancel(id));  // second cancel is a no-op
  });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
}

TEST(ShardedEngine, CancelDeliveredCrossShardSend) {
  Engine engine(Engine::Config{2, 1, 0.0});
  bool fired = false;
  Engine::EventId id{};
  engine.at(0, 1.0, [&] {
    id = engine.at(1, 3.0, [&] { fired = true; });
  });
  // At t=2 the send has been merged into shard 1's calendar; the id must
  // still cancel it there.
  engine.at(0, 2.0, [&] { EXPECT_TRUE(engine.cancel(id)); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
}

TEST(ShardedEngine, InvokeOnHopsToTargetShard) {
  Engine engine(Engine::Config{2, 1, 0.0});
  ShardId seen = -1;
  Time when = -1.0;
  engine.at(1, 1.5, [&] {
    engine.invoke_on(kControlShard, [&] {
      seen = engine.current_shard();
      when = engine.now();
    });
  });
  engine.run();
  EXPECT_EQ(seen, kControlShard);
  EXPECT_EQ(when, 1.5);  // posted at the sender's time
}

TEST(ShardedEngine, InvokeOnSameShardRunsInline) {
  Engine engine(Engine::Config{2, 1, 0.0});
  std::vector<int> order;
  engine.at(1, 1.0, [&] {
    order.push_back(1);
    engine.invoke_on(1, [&] { order.push_back(2); });
    order.push_back(3);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardedEngine, AffinitySpreadsOverWorkerShardsOnly) {
  Engine engine(Engine::Config{4, 1, 0.0});
  std::map<ShardId, int> hits;
  for (int i = 0; i < 64; ++i) {
    const ShardId s = engine.affinity("backend." + std::to_string(i));
    ASSERT_GE(s, 1);
    ASSERT_LT(s, 4);
    ++hits[s];
  }
  EXPECT_EQ(hits.size(), 3u);  // all worker shards get some load
  Engine single;
  EXPECT_EQ(single.affinity("backend.0"), kControlShard);
}

TEST(ShardedEngine, RunUntilStopsAtBoundaryAcrossShards) {
  Engine engine(Engine::Config{2, 1, 0.0});
  int ran = 0;
  engine.at(0, 1.0, [&] { ++ran; });
  engine.at(1, 2.0, [&] { ++ran; });
  engine.at(1, 5.0, [&] { ++ran; });
  EXPECT_EQ(engine.run(3.0), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(ran, 3);
}

TEST(ShardedEngine, StepInterleavesShardsDeterministically) {
  Engine engine(Engine::Config{2, 1, 0.0});
  std::vector<int> order;
  engine.at(0, 1.0, [&] { order.push_back(0); });
  engine.at(1, 1.0, [&] { order.push_back(1); });
  engine.at(1, 2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(engine.step());
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.processed(), 3u);
}

TEST(ShardedEngine, StopEndsRunAtRoundBoundary) {
  Engine engine(Engine::Config{2, 1, 0.0});
  int ran = 0;
  engine.at(0, 1.0, [&] {
    ++ran;
    engine.stop();
  });
  engine.at(1, 2.0, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.run(), 1u);  // a later run() resumes
  EXPECT_EQ(ran, 2);
}

TEST(ShardedEngine, LookaheadWindowDrainsWholeWindowPerRound) {
  // With lookahead 1.0 the events at t=1.0 and t=1.8 fall into one round;
  // shard 0 drains its whole window before shard 1 runs t=1.5.
  Engine engine(Engine::Config{2, 1, 1.0});
  std::vector<std::string> order;
  engine.at(0, 1.0, [&] { order.push_back("s0@1.0"); });
  engine.at(0, 1.8, [&] { order.push_back("s0@1.8"); });
  engine.at(1, 1.5, [&] { order.push_back("s1@1.5"); });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"s0@1.0", "s0@1.8", "s1@1.5"}));
}

TEST(ShardedEngine, PendingCountsCalendarsAndInFlightSends) {
  Engine engine(Engine::Config{2, 1, 0.0});
  engine.at(0, 1.0, [&] {
    engine.at(1, 2.0, [] {});
    // The send is still in the mailbox here: visible in pending().
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_FALSE(engine.empty());
  });
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_TRUE(engine.empty());
}

// --- threaded drains (also exercised under TSan in CI) --------------------

TEST(ShardedEngineThreads, ParallelDrainMatchesSequential) {
  StormConfig config;
  config.actors = 32;
  config.steps = 40;
  config.seed = 99;
  config.shards = 4;
  config.threads = 1;
  const StormResult sequential = run_storm(config);
  config.threads = 4;
  const StormResult parallel = run_storm(config);
  EXPECT_EQ(parallel.fingerprint, sequential.fingerprint);
  EXPECT_EQ(parallel.events, sequential.events);
}

TEST(ShardedEngineThreads, WorkerPoolProcessesShardConfinedEvents) {
  Engine engine(Engine::Config{4, 4, 0.0});
  std::atomic<int> ran{0};
  for (int s = 0; s < 4; ++s) {
    engine.at(s, 1.0, [&engine, &ran, s] {
      ran.fetch_add(1, std::memory_order_relaxed);
      engine.at(s, 2.0, [&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(engine.run(), 8u);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(engine.processed(), 8u);
  EXPECT_EQ(engine.now(), 2.0);
}

// --- full-stack threads matrix (bare mode) --------------------------------

// The confinement proofs (analyze/confined.txt, machine-checked by
// flotilla-analyze's conf-* passes) lift the stack's threads = 1 pin: a
// hybrid multi-backend scenario over a 4-shard engine must produce
// byte-identical trace/task fingerprints and terminal state for
// engine_threads in {1, 2, 4}. The reference run is monitored (serial);
// the matrix runs are bare. This is also the test the TSan CI leg drives
// to prove the parallel full-stack drain race-free.
TEST(ShardedEngineThreads, FullStackFingerprintInvariantAcrossThreads) {
  check::ScenarioSpec spec;
  spec.seed = 20260809;
  spec.nodes = 8;
  spec.shards = 4;
  spec.workload = "sleep";
  spec.tasks = 96;
  spec.duration = 0.25;
  spec.backends = {{.type = "flux", .partitions = 2},
                   {.type = "dragon", .partitions = 1},
                   {.type = "srun"}};

  const check::RunResult reference = check::run_scenario(spec, {});
  ASSERT_TRUE(reference.ok())
      << (reference.violations.empty() ? "" : reference.violations[0].detail);
  ASSERT_GT(reference.done, 0u);

  for (const int threads : {1, 2, 4}) {
    check::RunOptions opts;
    opts.engine_threads = threads;
    const check::RunResult result = check::run_scenario(spec, opts);
    EXPECT_TRUE(result.ok())
        << "engine_threads=" << threads << ": "
        << (result.violations.empty() ? "" : result.violations[0].detail);
    EXPECT_EQ(result.fingerprint, reference.fingerprint)
        << "engine_threads=" << threads;
    EXPECT_EQ(result.done, reference.done);
    EXPECT_EQ(result.failed, reference.failed);
    EXPECT_EQ(result.canceled, reference.canceled);
    EXPECT_EQ(result.makespan, reference.makespan);
  }
}

// Bare mode refuses the between-events observers: journaling requires
// the one global event order that a threaded drain does not have.
TEST(ShardedEngineThreads, ThreadedRunRejectsJournaling) {
  check::ScenarioSpec spec;
  spec.shards = 2;
  check::RunOptions opts;
  opts.engine_threads = 2;
  opts.journal = true;
  const check::RunResult result = check::run_scenario(spec, opts);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].invariant, "exception");
}

TEST(ShardedEngineThreads, ThreadsClampedToShardCount) {
  Engine engine(Engine::Config{2, 16, 0.0});
  std::atomic<int> ran{0};  // the two shards drain on different workers
  engine.at(0, 1.0, [&] { ++ran; });  // both shards owned by 2 workers max
  engine.at(1, 1.0, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran.load(), 2);
}

}  // namespace
}  // namespace flotilla::sim
