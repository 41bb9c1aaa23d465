#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/server.hpp"
#include "sim/stats.hpp"
#include "util/error.hpp"

namespace flotilla::sim {
namespace {

// ---------------------------------------------------------------- Resource

TEST(Resource, GrantsImmediatelyWhenAvailable) {
  Engine engine;
  Resource res(engine, 10);
  bool granted = false;
  res.acquire(4, [&] { granted = true; });
  EXPECT_FALSE(granted);  // grants are delivered via the event queue
  engine.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(res.available(), 6);
}

TEST(Resource, FifoOrderNoSkipping) {
  Engine engine;
  Resource res(engine, 4);
  std::vector<int> order;
  res.acquire(4, [&] { order.push_back(0); });
  res.acquire(3, [&] { order.push_back(1); });
  res.acquire(1, [&] { order.push_back(2); });  // fits, but must wait for #1
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  res.release(4);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(res.available(), 0);
}

TEST(Resource, TryAcquireRespectsQueue) {
  Engine engine;
  Resource res(engine, 4);
  res.acquire(4, [] {});
  res.acquire(2, [] {});  // queued
  engine.run();
  EXPECT_FALSE(res.try_acquire(1));  // waiter ahead
  res.release(4);
  engine.run();
  EXPECT_TRUE(res.try_acquire(2));
  EXPECT_EQ(res.available(), 0);
}

TEST(Resource, CancelWaitUnblocksFollowers) {
  Engine engine;
  Resource res(engine, 4);
  res.acquire(4, [] {});
  const auto big = res.acquire(4, [] { FAIL() << "cancelled waiter fired"; });
  bool small_granted = false;
  res.acquire(1, [&] { small_granted = true; });
  engine.run();
  res.release(1);  // 1 free, head wants 4
  engine.run();
  EXPECT_FALSE(small_granted);
  EXPECT_TRUE(res.cancel_wait(big));
  engine.run();
  EXPECT_TRUE(small_granted);
  EXPECT_FALSE(res.cancel_wait(big));
}

TEST(Resource, OverReleaseThrows) {
  Engine engine;
  Resource res(engine, 2);
  EXPECT_THROW(res.release(1), util::Error);
}

TEST(Resource, AcquireBeyondCapacityThrows) {
  Engine engine;
  Resource res(engine, 2);
  EXPECT_THROW(res.acquire(3, [] {}), util::Error);
}

// ------------------------------------------------------------------ Server

TEST(Server, SerializesWork) {
  Engine engine;
  Server server(engine, 1);
  std::vector<double> done_times;
  for (int i = 0; i < 3; ++i) {
    server.submit(2.0, [&] { done_times.push_back(engine.now()); });
  }
  EXPECT_EQ(server.backlog(), 2u);  // one in service, two queued
  engine.run();
  EXPECT_EQ(done_times, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_EQ(server.completed(), 3u);
  EXPECT_TRUE(server.idle());
}

TEST(Server, ParallelismOverlapsService) {
  Engine engine;
  Server server(engine, 2);
  std::vector<double> done_times;
  for (int i = 0; i < 4; ++i) {
    server.submit(3.0, [&] { done_times.push_back(engine.now()); });
  }
  engine.run();
  EXPECT_EQ(done_times, (std::vector<double>{3.0, 3.0, 6.0, 6.0}));
}

TEST(Server, ZeroServiceTimeCompletesSameInstant) {
  Engine engine;
  Server server(engine, 1);
  bool done = false;
  server.submit(0.0, [&] { done = true; });
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Server, BusyTimeAccumulates) {
  Engine engine;
  Server server(engine, 1);
  server.submit(1.5, [] {});
  server.submit(2.5, [] {});
  engine.run();
  EXPECT_DOUBLE_EQ(server.busy_time(), 4.0);
}

TEST(Server, NegativeServiceTimeThrows) {
  Engine engine;
  Server server(engine);
  EXPECT_THROW(server.submit(-1.0, [] {}), util::Error);
}

TEST(Server, NonFiniteServiceTimeThrows) {
  Engine engine;
  Server server(engine);
  EXPECT_THROW(server.submit(std::numeric_limits<double>::infinity(), [] {}),
               util::Error);
  EXPECT_THROW(server.submit(std::nan(""), [] {}), util::Error);
  EXPECT_TRUE(server.idle());
}

TEST(Server, BusyTimeCountsOnlyFinishedService) {
  Engine engine;
  Server server(engine, 1);
  std::vector<double> seen;
  server.submit(1.5, [&] { seen.push_back(server.busy_time()); });
  server.submit(2.5, [&] { seen.push_back(server.busy_time()); });
  EXPECT_DOUBLE_EQ(server.busy_time(), 0.0);  // nothing has finished
  engine.run(1.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 0.0);  // first item mid-service
  engine.run(2.0);
  EXPECT_DOUBLE_EQ(server.busy_time(), 1.5);  // second item mid-service
  engine.run();
  EXPECT_DOUBLE_EQ(server.busy_time(), 4.0);
  // Each `done` already sees its own item's service counted.
  EXPECT_EQ(seen, (std::vector<double>{1.5, 4.0}));
}

TEST(Server, SubmitFromDoneQueuesBehindWaiters) {
  Engine engine;
  Server server(engine, 2);
  std::vector<std::pair<char, double>> done;
  auto record = [&](char name) {
    return [&done, &engine, name] { done.emplace_back(name, engine.now()); };
  };
  server.submit(1.0, [&] {
    done.emplace_back('a', engine.now());
    // c and d are waiting: e must start after both, not take a's slot.
    server.submit(1.0, record('e'));
    EXPECT_EQ(server.backlog(), 2u);  // c took a's slot; d, then e wait
  });
  server.submit(1.0, record('b'));
  server.submit(1.0, record('c'));
  server.submit(1.0, record('d'));
  engine.run();
  EXPECT_EQ(done, (std::vector<std::pair<char, double>>{
                      {'a', 1.0}, {'b', 1.0}, {'c', 2.0}, {'d', 2.0},
                      {'e', 3.0}}));
  EXPECT_EQ(server.completed(), 5u);
}

TEST(Server, CountsAcrossDirectAndQueuedStarts) {
  Engine engine;
  Server server(engine, 2);
  EXPECT_TRUE(server.idle());
  server.submit(1.0, [] {});  // direct start
  EXPECT_EQ(server.in_service(), 1);
  EXPECT_EQ(server.backlog(), 0u);
  EXPECT_FALSE(server.idle());
  server.submit(2.0, [] {});  // direct start, second slot
  server.submit(1.0, [] {});  // waits
  server.submit(1.0, [] {});  // waits
  EXPECT_EQ(server.in_service(), 2);
  EXPECT_EQ(server.backlog(), 2u);
  engine.run(1.0);  // first item done, its slot takes the queue head
  EXPECT_EQ(server.in_service(), 2);
  EXPECT_EQ(server.backlog(), 1u);
  engine.run(2.0);  // two more done, the last waiter started
  EXPECT_EQ(server.in_service(), 1);
  EXPECT_EQ(server.backlog(), 0u);
  engine.run();
  EXPECT_EQ(server.in_service(), 0);
  EXPECT_TRUE(server.idle());
  EXPECT_EQ(server.completed(), 4u);
  // Drained: the next submit starts directly again.
  server.submit(1.0, [] {});
  EXPECT_EQ(server.in_service(), 1);
  EXPECT_EQ(server.backlog(), 0u);
  engine.run();
  EXPECT_EQ(server.completed(), 5u);
}

// Pending work owns its captures: tearing down mid-run, in either order,
// releases every one of them (ASan builds also report any leak).
TEST(Server, TeardownWithWorkInFlightReleasesCaptures) {
  for (const bool server_first : {true, false}) {
    auto token = std::make_shared<int>(0);
    {
      auto engine = std::make_unique<Engine>();
      auto server = std::make_unique<Server>(*engine, 2);
      for (int i = 0; i < 5; ++i) {
        server->submit(1.0, [token] { ++*token; });
      }
      engine->run(1.0);  // two done, two in service, one waiting
      EXPECT_EQ(*token, 2);
      EXPECT_EQ(server->in_service(), 2);
      EXPECT_EQ(server->backlog(), 1u);
      EXPECT_EQ(token.use_count(), 4);
      if (server_first) {
        server.reset();
        engine.reset();
      } else {
        engine.reset();
        server.reset();
      }
    }
    EXPECT_EQ(token.use_count(), 1) << "server_first=" << server_first;
  }
}

// ------------------------------------------------------------------ FanOut

TEST(FanOut, IdleTargetsCostOneEvent) {
  Engine engine;
  std::vector<std::unique_ptr<Server>> servers;
  for (int i = 0; i < 4; ++i) servers.push_back(std::make_unique<Server>(engine));
  FanOut fan;
  for (int i = 0; i < 4; ++i) fan.add(*servers[i], i == 2 ? 3.0 : 1.0);
  double up = -1.0;
  fan.launch([&] { up = engine.now(); });
  EXPECT_EQ(engine.pending(), 1u);  // the carrier: the slowest node's spawn
  for (const auto& server : servers) EXPECT_EQ(server->in_service(), 1);
  engine.run();
  EXPECT_EQ(engine.processed(), 1u);
  EXPECT_DOUBLE_EQ(up, 3.0);
  for (const auto& server : servers) {
    EXPECT_TRUE(server->idle());
    EXPECT_EQ(server->completed(), 1u);
  }
  EXPECT_DOUBLE_EQ(servers[2]->busy_time(), 3.0);
}

TEST(FanOut, RunUntilBetweenHoldAndCarrier) {
  Engine engine;
  Server fast(engine), slow(engine);
  FanOut fan;
  fan.add(fast, 1.0);
  fan.add(slow, 2.0);
  bool up = false;
  fan.launch([&] { up = true; });
  engine.run(1.5);  // the fast spawn is over; its event was never pushed
  EXPECT_FALSE(up);
  EXPECT_TRUE(fast.idle());
  EXPECT_EQ(fast.completed(), 1u);
  EXPECT_DOUBLE_EQ(fast.busy_time(), 1.0);
  EXPECT_EQ(slow.in_service(), 1);
  double done_at = -1.0;
  fast.submit(0.25, [&] { done_at = engine.now(); });  // retires the hold
  EXPECT_EQ(fast.in_service(), 1);
  EXPECT_EQ(fast.completed(), 1u);
  engine.run();
  EXPECT_TRUE(up);
  EXPECT_DOUBLE_EQ(done_at, 1.75);
  EXPECT_EQ(fast.completed(), 2u);
}

TEST(FanOut, SubmitBehindALiveHoldWaitsForIt) {
  Engine engine;
  Server a(engine), b(engine);
  FanOut fan;
  fan.add(a, 1.0);
  fan.add(b, 2.0);
  std::vector<std::pair<char, double>> seen;
  fan.launch([&] { seen.emplace_back('f', engine.now()); });
  a.submit(1.0, [&] { seen.emplace_back('x', engine.now()); });
  EXPECT_EQ(a.backlog(), 1u);  // the hold was materialized, not skipped
  engine.run();
  // x starts when a's spawn ends and ties with the carrier at 2.0; the
  // carrier's seq was reserved first, so it fires first.
  EXPECT_EQ(seen, (std::vector<std::pair<char, double>>{{'f', 2.0},
                                                        {'x', 2.0}}));
  EXPECT_EQ(engine.processed(), 3u);
}

// A set of servers driven by one random schedule, either eagerly (every
// fan-out target submitted on its own under one countdown: the per-node
// loop FanOut replaced) or through FanOut. Both draw from identically
// seeded streams in callback order, so as long as they agree they make the
// same choices. The log records, for every callback and for a probe from
// outside after every run(until) window, the current event key and every
// server's accessors.
class FanOutWorld {
 public:
  FanOutWorld(bool holding, std::uint64_t seed)
      : holding_(holding), rng_(seed) {
    for (int i = 0; i < kServers; ++i) {
      servers_.push_back(std::make_unique<Server>(engine_, i % 3 == 2 ? 2 : 1));
    }
    const auto roots = rng_.uniform_int(8, 24);
    for (std::int64_t i = 0; i < roots; ++i) {
      engine_.at(grid(8.0), [this] { act(true); });
    }
  }

  std::vector<std::string> drive() {
    for (double until = 0.0; until < 14.0;
         until += 0.25 * static_cast<double>(rng_.uniform_int(1, 6))) {
      window(until);
    }
    window(kInfiniteTime);
    return log_;
  }

  std::uint64_t processed() const { return engine_.processed(); }
  int crashes() const { return crashed_ ? 1 : 0; }

 private:
  static constexpr int kServers = 6;

  double grid(double max) {
    return 0.25 * static_cast<double>(
                      rng_.uniform_int(0, static_cast<std::int64_t>(max * 4)));
  }

  // run(until), repeated while a stop() cut it short, then a probe and
  // perhaps a submit from outside any callback.
  void window(Time until) {
    do {
      stopped_ = false;
      engine_.run(until);
      note("window");
    } while (stopped_);
    if (rng_.bernoulli(0.3)) act(false);
  }

  void act(bool inside) {
    switch (rng_.uniform_int(0, 9)) {
      case 0: case 1: case 2: case 3: case 4:
        fan_out();
        break;
      case 5: case 6: case 7:
        single();
        break;
      case 8:
        if (rng_.bernoulli(0.15)) crashed_ = true;  // the broker dies
        note("crash?");
        break;
      default:
        if (inside) {
          engine_.stop();
          stopped_ = true;
        }
        note("stop?");
        break;
    }
  }

  void follow_up() {
    if (engine_.now() < 10.0 && rng_.bernoulli(0.45)) act(true);
  }

  void fan_out() {
    const int id = next_id_++;
    const auto n = rng_.uniform_int(1, 5);
    std::string what = "fan " + std::to_string(id) + ":";
    std::vector<std::pair<Server*, Time>> targets;
    for (std::int64_t i = 0; i < n; ++i) {
      // Repeats allowed: gang members sharing a node.
      const auto s = rng_.uniform_int(0, kServers - 1);
      targets.emplace_back(servers_[static_cast<std::size_t>(s)].get(),
                           grid(1.5));
      what.append(" ").append(std::to_string(s));
    }
    note(what);
    Callback up = [this, id] {
      if (crashed_) {
        note("fan " + std::to_string(id) + " up after crash");
        return;
      }
      note("fan " + std::to_string(id) + " up");
      follow_up();
    };
    if (holding_) {
      for (const auto& [server, service] : targets) fan_.add(*server, service);
      fan_.launch(std::move(up));
      return;
    }
    auto remaining = std::make_shared<std::size_t>(targets.size());
    auto shared_up = std::make_shared<Callback>(std::move(up));
    for (const auto& [server, service] : targets) {
      server->submit(service, [remaining, shared_up] {
        if (--*remaining == 0) (*shared_up)();
      });
    }
  }

  void single() {
    if (crashed_) return;
    const int id = next_id_++;
    const auto s = rng_.uniform_int(0, kServers - 1);
    note("item " + std::to_string(id) + ": " + std::to_string(s));
    servers_[static_cast<std::size_t>(s)]->submit(grid(1.5), [this, id] {
      note("item " + std::to_string(id) + " done");
      follow_up();
    });
  }

  void note(const std::string& what) {
    std::ostringstream line;
    line.precision(17);
    const Engine::EventKey key = engine_.current_key();
    line << what << " @(" << key.time << "," << key.seq << ") now "
         << engine_.now();
    for (const auto& server : servers_) {
      line << " [" << server->in_service() << ' ' << server->backlog() << ' '
           << server->idle() << ' ' << server->completed() << ' '
           << server->busy_time() << ']';
    }
    log_.push_back(line.str());
  }

  bool holding_;
  RngStream rng_;
  Engine engine_;
  std::vector<std::unique_ptr<Server>> servers_;
  FanOut fan_;
  std::vector<std::string> log_;
  int next_id_ = 0;
  bool crashed_ = false;
  bool stopped_ = false;
};

TEST(FanOut, HoldsAgreeWithEagerSubmitsOnRandomSchedules) {
  std::uint64_t eager_events = 0;
  std::uint64_t holding_events = 0;
  int crashes = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    FanOutWorld eager(false, seed);
    FanOutWorld holding(true, seed);
    const auto expected = eager.drive();
    const auto actual = holding.drive();
    for (std::size_t i = 0; i < std::min(expected.size(), actual.size());
         ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "seed " << seed << " line " << i;
    }
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    eager_events += eager.processed();
    holding_events += holding.processed();
    crashes += holding.crashes();
  }
  // The schedules did exercise elision and crashes.
  EXPECT_LT(holding_events, eager_events);
  EXPECT_GT(crashes, 0);
}

// ------------------------------------------------------------------- Stats

TEST(Tally, ComputesMoments) {
  Tally tally;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    tally.add(x);
  }
  EXPECT_EQ(tally.count(), 8u);
  EXPECT_DOUBLE_EQ(tally.mean(), 5.0);
  EXPECT_DOUBLE_EQ(tally.min(), 2.0);
  EXPECT_DOUBLE_EQ(tally.max(), 9.0);
  EXPECT_NEAR(tally.stddev(), 2.0, 1e-12);
}

TEST(Tally, EmptyTallyIsZero) {
  Tally tally;
  EXPECT_EQ(tally.count(), 0u);
  EXPECT_DOUBLE_EQ(tally.mean(), 0.0);
  EXPECT_DOUBLE_EQ(tally.stddev(), 0.0);
}

TEST(TimeWeighted, IntegratesStepFunction) {
  TimeWeighted tw;
  tw.set(0.0, 0.0);
  tw.set(10.0, 4.0);   // 0 for 10 s
  tw.set(20.0, 2.0);   // 4 for 10 s
  EXPECT_DOUBLE_EQ(tw.integral(30.0), 0.0 * 10 + 4.0 * 10 + 2.0 * 10);
  EXPECT_DOUBLE_EQ(tw.time_average(30.0), 2.0);
  EXPECT_DOUBLE_EQ(tw.max_value(), 4.0);
}

TEST(TimeWeighted, AddAppliesDelta) {
  TimeWeighted tw;
  tw.set(0.0, 1.0);
  tw.add(5.0, 2.0);
  EXPECT_DOUBLE_EQ(tw.value(), 3.0);
  EXPECT_DOUBLE_EQ(tw.integral(10.0), 1.0 * 5 + 3.0 * 5);
}

TEST(TimeWeighted, OutOfOrderUpdateThrows) {
  TimeWeighted tw;
  tw.set(5.0, 1.0);
  EXPECT_THROW(tw.set(4.0, 2.0), util::Error);
}

TEST(RateSeries, BinsAndRates) {
  RateSeries series(1.0);
  series.record(0.1);
  series.record(0.9);
  series.record(2.5);
  series.record(2.6);
  series.record(2.7);
  EXPECT_EQ(series.total(), 5u);
  ASSERT_EQ(series.bins().size(), 3u);
  EXPECT_EQ(series.bins()[0], 2u);
  EXPECT_EQ(series.bins()[1], 0u);
  EXPECT_EQ(series.bins()[2], 3u);
  EXPECT_DOUBLE_EQ(series.peak_rate(), 3.0);
  EXPECT_DOUBLE_EQ(series.mean_nonzero_rate(), 2.5);
  EXPECT_NEAR(series.window_rate(), 5.0 / 2.6, 1e-12);
}

TEST(RateSeries, EmptySeriesIsZero) {
  RateSeries series;
  EXPECT_DOUBLE_EQ(series.peak_rate(), 0.0);
  EXPECT_DOUBLE_EQ(series.mean_nonzero_rate(), 0.0);
  EXPECT_DOUBLE_EQ(series.window_rate(), 0.0);
}

TEST(LatencyHistogram, PercentilesOnUniformSamples) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(i * 0.001);  // 1ms..1s
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_NEAR(hist.mean(), 0.5005, 1e-6);
  EXPECT_NEAR(hist.percentile(0.5), 0.5, 0.05);   // ~2.3% bucket width
  EXPECT_NEAR(hist.percentile(0.99), 0.99, 0.08);
  EXPECT_NEAR(hist.percentile(0.0), 0.001, 0.001);
  EXPECT_NEAR(hist.percentile(1.0), 1.0, 0.05);
  EXPECT_DOUBLE_EQ(hist.min(), 0.001);
  EXPECT_DOUBLE_EQ(hist.max(), 1.0);
}

TEST(LatencyHistogram, BimodalDistribution) {
  LatencyHistogram hist;
  for (int i = 0; i < 900; ++i) hist.record(0.01);
  for (int i = 0; i < 100; ++i) hist.record(10.0);
  EXPECT_NEAR(hist.percentile(0.5), 0.01, 0.003);
  EXPECT_NEAR(hist.percentile(0.95), 10.0, 1.5);
}

TEST(LatencyHistogram, EmptyAndEdgeBehaviour) {
  LatencyHistogram hist;
  EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  hist.record(0.0);  // below the bucket floor: clamps to bucket 0
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.0);  // clamped to min sample
  EXPECT_THROW(hist.percentile(1.5), util::Error);
  EXPECT_THROW(hist.record(-1.0), util::Error);
}

TEST(LatencyHistogram, ExtremeValuesClampToRange) {
  LatencyHistogram hist;
  hist.record(1e-9);  // below floor
  hist.record(1e9);   // above ceiling bucket
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.max(), 1e9);
  EXPECT_LE(hist.percentile(0.25), 1e-5 * 1.2);
}

// ------------------------------------------------------------------ Random

TEST(RngStream, DeterministicPerSeed) {
  RngStream a(42, "ctl");
  RngStream b(42, "ctl");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, StreamsAreIndependentByName) {
  RngStream a(42, "ctl");
  RngStream b(42, "exec");
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(differs);
}

TEST(RngStream, UniformInUnitInterval) {
  RngStream rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformIntCoversRangeInclusive) {
  RngStream rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngStream, ExponentialMeanConverges) {
  RngStream rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngStream, LognormalMeanCvConverges) {
  RngStream rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_mean_cv(10.0, 0.3);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(10.0, 0.0), 10.0);
}

// The draw formulas written out over a twin stream's raw uniforms: what
// every RngStream draw must equal bit for bit, however the stream caches.
struct ReferenceDraws {
  RngStream raw;
  double uniform() { return raw.uniform(); }
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo >= hi) return lo;
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(raw.next_u64() % span);
  }
  double exponential(double mean) {
    double u = raw.uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }
  double normal(double mean, double stddev) {
    double u1 = raw.uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = raw.uniform();
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.141592653589793 * u2);
    return mean + stddev * z;
  }
  double lognormal_mean_cv(double mean, double cv) {
    if (mean <= 0.0) return 0.0;
    if (cv <= 0.0) return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(normal(mu, std::sqrt(sigma2)));
  }
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// A fixed interleaving of every draw kind. The lognormal draws mix a hot
// set of four (mean, cv) pairs, drawn in rotation as a Flux instance draws
// its fixed costs, with a mean that varies per draw like a Flux job's
// wireup and a cold rotation over eleven more pairs (edge cases included):
// more distinct pairs than any parameter cache holds, so hits, misses and
// evictions all occur. Returns an FNV-1a fold of every draw's bits.
std::uint64_t pin_draws(std::uint64_t seed) {
  static constexpr double kHot[][2] = {
      {1.0e-3, 0.2}, {2.5e-4, 0.2}, {0.05, 0.2}, {7.0e-3, 0.1}};
  static constexpr double kCold[][2] = {
      {1.0e-3, 0.1}, {3.0, 0.35},    {0.12, 0.2}, {4.0e-5, 0.2},
      {1.0e-3, 0.05}, {10.0, 0.3},   {6.25e-4, 0.2}, {0.9, 1.5},
      {0.0, 0.2},    {2.0, 0.0},     {-1.0, 0.2},
  };
  RngStream rng(seed, "pin");
  ReferenceDraws ref{RngStream(seed, "pin")};
  std::uint64_t fold = 0xcbf29ce484222325ULL;
  const auto check = [&fold](double got, double want, int step) {
    EXPECT_EQ(bits_of(got), bits_of(want)) << "draw " << step;
    fold = (fold ^ bits_of(got)) * 0x100000001b3ULL;
  };
  const auto lognormal = [&](const double (&pair)[2], int step) {
    check(rng.lognormal_mean_cv(pair[0], pair[1]),
          ref.lognormal_mean_cv(pair[0], pair[1]), step);
  };
  for (int i = 0; i < 4500; ++i) {
    const auto cycle = static_cast<std::size_t>(i / 9);
    switch (i % 9) {
      case 0: check(rng.uniform(), ref.uniform(), i); break;
      case 1: {
        const auto got = rng.uniform_int(-3, 17 + i % 5);
        const auto want = ref.uniform_int(-3, 17 + i % 5);
        EXPECT_EQ(got, want) << "draw " << i;
        fold = (fold ^ static_cast<std::uint64_t>(got)) * 0x100000001b3ULL;
        break;
      }
      case 2: check(rng.exponential(0.5), ref.exponential(0.5), i); break;
      case 3: check(rng.normal(1.0, 0.25), ref.normal(1.0, 0.25), i); break;
      case 4: {
        // Wireup-like: base plus a per-node term over a varying node count.
        const double mean = 0.02 + 0.001 * static_cast<double>(1 + i % 37);
        check(rng.lognormal_mean_cv(mean, 0.2),
              ref.lognormal_mean_cv(mean, 0.2), i);
        break;
      }
      case 8: lognormal(kCold[cycle % std::size(kCold)], i); break;
      default:  // 5, 6, 7: three of the hot four, a different start each cycle
        lognormal(kHot[(cycle + static_cast<std::size_t>(i % 9)) % 4], i);
        break;
    }
  }
  return fold;
}

TEST(RngStream, DrawsMatchTheWrittenOutFormulasBitForBit) {
  // The folds pin the draws themselves across changes to the generator.
  EXPECT_EQ(pin_draws(42), 0x88bd93e22c9661a0ULL);
  EXPECT_EQ(pin_draws(7), 0x3ef433fd748ce50dULL);
}

}  // namespace
}  // namespace flotilla::sim
