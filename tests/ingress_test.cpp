// Service-mode ingress tests (docs/ingress.md): arrival determinism,
// intake batching, admission edge cases, and the conservation-under-
// rejection invariant the fuzz harness checks at scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/flotilla.hpp"
#include "ingress/ingress.hpp"
#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::ingress {
namespace {

using platform::frontier_spec;

// ---------------------------------------------------------------- arrivals

TEST(ArrivalProcess, PoissonGapsAreDeterministicAndPositive) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.rate = 500.0;
  ArrivalProcess a(config, 7), b(config, 7);
  double mean = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double gap = a.next_gap(0.0);
    EXPECT_GT(gap, 0.0);
    EXPECT_DOUBLE_EQ(gap, b.next_gap(0.0));
    mean += gap;
  }
  mean /= 2000.0;
  // Mean inter-arrival of a Poisson stream at rate R is 1/R.
  EXPECT_NEAR(mean, 1.0 / config.rate, 0.2 / config.rate);
}

TEST(ArrivalProcess, DiurnalLongRunRateTracksTheConfiguredAverage) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kDiurnal;
  config.rate = 200.0;
  ArrivalProcess a(config, 11);
  // Integrate over many whole periods: the sinusoid averages out, so the
  // arrival count over T approaches rate * T.
  double t = 0.0;
  int n = 0;
  while (t < 10.0 * config.diurnal_period) {
    t += a.next_gap(t);
    ++n;
  }
  EXPECT_NEAR(static_cast<double>(n) / t, config.rate, 0.05 * config.rate);
}

TEST(ArrivalProcess, BurstyLongRunRateTracksTheConfiguredAverage) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBursty;
  config.rate = 300.0;
  ArrivalProcess a(config, 13);
  double t = 0.0;
  int n = 0;
  while (n < 60000) {
    t += a.next_gap(t);
    ++n;
  }
  EXPECT_NEAR(static_cast<double>(n) / t, config.rate, 0.08 * config.rate);
}

TEST(ArrivalProcess, ClosedLoopHasNoGapProcess) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kClosed;
  EXPECT_THROW(ArrivalProcess(config, 1), util::Error);
}

TEST(ArrivalConfig, TokenRoundTrip) {
  auto c = ArrivalConfig::parse("bursty:750.5");
  EXPECT_EQ(c.kind, ArrivalKind::kBursty);
  EXPECT_DOUBLE_EQ(c.rate, 750.5);
  EXPECT_EQ(ArrivalConfig::parse(c.to_string()).rate, c.rate);
  auto closed = ArrivalConfig::parse("closed:0.125");
  EXPECT_DOUBLE_EQ(closed.think, 0.125);
  EXPECT_THROW(ArrivalConfig::parse("weibull:3"), util::Error);
  EXPECT_THROW(ArrivalConfig::parse("poisson:-5"), util::Error);
  // Non-finite parameters are refused at parse time with the same label,
  // not left for the engine or the gap process to trip over.
  for (const char* token : {"closed:inf", "poisson:nan", "diurnal:inf",
                            "bursty:-inf", "closed:nan"}) {
    try {
      ArrivalConfig::parse(token);
      ADD_FAILURE() << token << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("arrival: bad parameter"),
                std::string::npos)
          << token << ": " << e.what();
    }
  }
}

TEST(ArrivalConfig, EveryKindRoundTripsNonIntegerParametersExactly) {
  // The token prints its parameter with every digit, so a spec line or
  // journal that stores it replays the same rate or think time.
  for (const char* kind : {"poisson", "diurnal", "bursty", "closed"}) {
    for (const double param : {0.1, 1234.5678901, 0.123456789, 1e-9}) {
      const auto token = std::string(kind) + ":" + util::exact_double(param);
      const auto config = ArrivalConfig::parse(token);
      EXPECT_EQ(config.open_loop() ? config.rate : config.think, param)
          << token;
      EXPECT_EQ(config.to_string(), token);
      const auto again = ArrivalConfig::parse(config.to_string());
      EXPECT_EQ(again.kind, config.kind) << token;
      EXPECT_EQ(again.rate, config.rate) << token;
      EXPECT_EQ(again.think, config.think) << token;
    }
  }
}

TEST(AdmitConfig, TokenRoundTrip) {
  auto c = AdmitConfig::parse("defer:32");
  EXPECT_EQ(c.policy, AdmitPolicy::kDefer);
  EXPECT_EQ(c.capacity, 32u);
  EXPECT_EQ(AdmitConfig::parse(c.to_string()).capacity, c.capacity);
  EXPECT_THROW(AdmitConfig::parse("drop:1"), util::Error);
  EXPECT_THROW(AdmitConfig::parse("reject:-1"), util::Error);
}

// ------------------------------------------------------------ full stack

struct IngressFixture {
  core::Session session;
  core::PilotManager pmgr;
  core::Pilot* pilot = nullptr;
  std::unique_ptr<core::TaskManager> tmgr;
  std::unique_ptr<IngressService> svc;

  explicit IngressFixture(int nodes = 4, std::uint64_t seed = 42)
      : session(frontier_spec(), nodes, seed), pmgr(session) {
    core::PilotDescription pd;
    pd.nodes = nodes;
    pd.backends = {{"dragon"}};
    pilot = &pmgr.submit(std::move(pd));
    bool ok = false;
    pilot->launch([&](bool success, const std::string&) { ok = success; });
    session.run(240.0);
    EXPECT_TRUE(ok);
    tmgr = std::make_unique<core::TaskManager>(session, pilot->agent());
  }

  // Starts the service without running the engine.
  void launch(IngressConfig config, int tasks,
              std::vector<core::TaskDescription> prototypes) {
    config.total_offers = tasks;
    svc = std::make_unique<IngressService>(session, *tmgr, config);
    svc->start(std::move(prototypes));
  }

  void start(IngressConfig config, int tasks) {
    core::TaskDescription proto;
    proto.demand.cores = 1;
    launch(config, tasks, {proto});
    session.run();
  }
};

core::TaskDescription named_task(std::string name, double duration = 0.0) {
  core::TaskDescription d;
  d.name = std::move(name);
  d.demand.cores = 1;
  d.duration = duration;
  return d;
}

TEST(IngressService, OpenLoopDeliversEveryOfferWithAmpleCapacity) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 1000;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 400.0;
  fx.start(config, 200);

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.offered, 200u);
  EXPECT_EQ(stats.accepted, 200u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(fx.tmgr->submitted(), 200u);
  EXPECT_EQ(stats.launched, 200u);
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_TRUE(fx.svc->quiescent());
  // Batching amortized: fewer intake transactions than tasks, none above
  // the configured maximum.
  EXPECT_LT(stats.batches, stats.accepted);
  EXPECT_LE(stats.max_batch, config.batch.max_batch);
  EXPECT_EQ(stats.batched_tasks, stats.accepted);
  // Every accepted task recorded a submit->launch sample.
  EXPECT_EQ(fx.svc->submit_to_launch().count(), 200u);
}

TEST(IngressService, ZeroCapacityRejectsEverythingExactlyOnce) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 8;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 1000.0;
  config.admit.capacity = 0;
  fx.start(config, 150);

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.offered, 150u);
  EXPECT_EQ(stats.rejected, 150u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(fx.tmgr->submitted(), 0u);
  EXPECT_EQ(fx.svc->submit_to_launch().count(), 0u);
  EXPECT_TRUE(fx.svc->quiescent());
}

TEST(IngressService, ZeroCapacityDeferExhaustsItsRetryBudgetThenRejects) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 4;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 500.0;
  config.admit.policy = AdmitPolicy::kDefer;
  config.admit.capacity = 0;
  fx.start(config, 40);

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  // Every fresh request is deferred max_defers times, then rejected: the
  // offer count is fresh * (max_defers + 1), with one terminal verdict
  // (reject) per fresh request and zero accepts.
  const auto fresh = 40u;
  const auto retries =
      static_cast<std::uint64_t>(config.admit.max_defers);
  EXPECT_EQ(stats.offered, fresh * (retries + 1));
  EXPECT_EQ(stats.deferred, fresh * retries);
  EXPECT_EQ(stats.rejected, fresh);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(fx.tmgr->submitted(), 0u);
  EXPECT_TRUE(fx.svc->quiescent());
}

TEST(IngressService, TightCapacityUnderBurstRejectsButConserves) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 100;
  config.arrival.kind = ArrivalKind::kBursty;
  config.arrival.rate = 2000.0;
  config.admit.capacity = 4;
  fx.start(config, 400);

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.offered, 400u);
  EXPECT_GT(stats.rejected, 0u);  // saturation must actually bite
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_EQ(stats.accepted, fx.tmgr->submitted());
  EXPECT_TRUE(fx.svc->quiescent());
}

TEST(IngressService, ClosedLoopClientsHonorTheirInFlightBound) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 12;
  config.arrival.kind = ArrivalKind::kClosed;
  config.arrival.think = 0.05;
  config.in_flight_limit = 2;
  fx.start(config, 120);

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.offered, 120u);
  EXPECT_LE(stats.max_client_in_flight,
            static_cast<std::size_t>(config.in_flight_limit));
  EXPECT_EQ(stats.accepted, fx.tmgr->submitted());
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_TRUE(fx.svc->quiescent());
}

TEST(IngressService, ClosedLoopRejectedClientsRetryWithFreshOffers) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 6;
  config.arrival.kind = ArrivalKind::kClosed;
  config.arrival.think = 0.01;
  config.admit.capacity = 0;  // reject everything; clients keep retrying
  fx.start(config, 60);

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.offered, 60u);
  EXPECT_EQ(stats.rejected, 60u);
  EXPECT_EQ(fx.tmgr->submitted(), 0u);
  EXPECT_TRUE(fx.svc->quiescent());
}

// Deterministic backpressure-release ordering: two same-seed runs that
// engage the defer path must accept the same tasks in the same order.
TEST(IngressService, DeferReleaseOrderingIsDeterministic) {
  std::vector<core::TaskId> id_sequences[2];
  std::uint64_t offered[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    IngressFixture fx(4, 42);
    IngressConfig config;
    config.clients = 50;
    config.arrival.kind = ArrivalKind::kPoisson;
    config.arrival.rate = 3000.0;  // saturate the small intake bound
    config.admit.policy = AdmitPolicy::kDefer;
    config.admit.capacity = 8;
    fx.start(config, 300);
    const auto stats = fx.svc->stats();
    EXPECT_TRUE(stats.conserved());
    EXPECT_GT(stats.deferred, 0u);  // backpressure must actually engage
    id_sequences[i] = fx.svc->accepted_ids();
    offered[i] = stats.offered;
  }
  EXPECT_EQ(offered[0], offered[1]);
  EXPECT_EQ(id_sequences[0], id_sequences[1]);
}

TEST(IngressService, SameSeedRunsAreIdenticalDifferentSeedsDiverge) {
  std::ostringstream fingerprints[3];
  const std::uint64_t seeds[3] = {42, 42, 43};
  for (int i = 0; i < 3; ++i) {
    IngressFixture fx(4, seeds[i]);
    IngressConfig config;
    config.clients = 64;
    config.arrival.kind = ArrivalKind::kDiurnal;
    config.arrival.rate = 600.0;
    config.admit.capacity = 16;
    fx.start(config, 250);
    const auto stats = fx.svc->stats();
    fingerprints[i] << stats.offered << "|" << stats.accepted << "|"
                    << stats.rejected << "|" << stats.deferred << "|"
                    << stats.batches << "|"
                    << fx.svc->submit_to_launch().percentile(0.99) << "|";
    for (const core::TaskId id : fx.svc->accepted_ids()) {
      fingerprints[i] << id << ",";
    }
  }
  EXPECT_EQ(fingerprints[0].str(), fingerprints[1].str());
  EXPECT_NE(fingerprints[0].str(), fingerprints[2].str());
}

TEST(IngressService, MillionClientOpenLoopIsCheapAndConserved) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 1000000;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 2000.0;
  fx.start(config, 500);  // population size, not offer count, is 10^6

  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.offered, 500u);
  EXPECT_EQ(stats.accepted, fx.tmgr->submitted());
  EXPECT_TRUE(fx.svc->quiescent());
}

TEST(IngressService, StartValidatesItsArguments) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 1;
  config.total_offers = 10;
  IngressService svc(fx.session, *fx.tmgr, config);
  EXPECT_THROW(svc.start({}), util::Error);
  core::TaskDescription proto;
  svc.start({proto});
  EXPECT_THROW(svc.start({proto}), util::Error);
}

// ------------------------------------------------------------ offer window

// A fresh offer draws prototypes[a % n], a being the number of offers
// accepted before it: a rejected fresh offer does not advance the draw, so
// accepted tasks alternate A, B, A, B however many offers were refused in
// between (drawing by fresh-offer count would repeat a prototype after an
// odd run of rejects).
TEST(IngressService, PrototypesRotateByAcceptedOffers) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 100;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 3000.0;
  config.admit.capacity = 2;
  fx.launch(config, 300, {named_task("A"), named_task("B")});
  fx.session.run();
  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  ASSERT_GT(stats.rejected, 10u);  // the rule has rejects to skip
  std::vector<std::string> names;  // in submit order
  fx.tmgr->for_each_task(
      [&names](const core::Task& task) { names.push_back(task.name()); });
  ASSERT_EQ(names.size(), stats.accepted);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], i % 2 == 0 ? "A" : "B") << "accepted offer " << i;
  }
}

// Tasks submitted straight to the same TaskManager take ids between the
// ingress's batches: the window files them as gaps (or they fall below
// it) and ignores them, so they record no latency sample.
TEST(IngressService, DirectSubmitsBetweenBatchesAreIgnored) {
  IngressFixture fx(8);
  IngressConfig config;
  config.clients = 1000;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 500.0;
  fx.launch(config, 400, {named_task("offer", 0.5)});
  constexpr int kDirect = 60;
  for (int i = 0; i < kDirect; ++i) {
    fx.session.engine().in(0.0125 * i, [&fx] {
      fx.tmgr->submit(named_task("direct", 0.25));
    });
  }
  std::size_t peak_window = 0;
  while (fx.session.engine().step()) {
    peak_window = std::max(peak_window, fx.svc->window_size());
  }
  const auto stats = fx.svc->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.accepted, 400u);
  EXPECT_EQ(fx.tmgr->submitted(), 400u + kDirect);
  EXPECT_EQ(fx.tmgr->finished(), 400u + kDirect);
  EXPECT_EQ(stats.launched, 400u);
  EXPECT_EQ(stats.completed, 400u);
  EXPECT_EQ(fx.svc->submit_to_launch().count(), 400u);
  EXPECT_EQ(fx.svc->turnaround().count(), 400u);
  EXPECT_GT(peak_window, 0u);
  EXPECT_EQ(fx.svc->window_size(), 0u);
  // The accepted list names only ingress tasks, in commit order.
  std::map<core::TaskId, std::string> names;
  fx.tmgr->for_each_task(
      [&names](const core::Task& task) { names[task.id()] = task.name(); });
  const auto& ids = fx.svc->accepted_ids();
  ASSERT_EQ(ids.size(), 400u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_GT(ids.back() - ids.front() + 1, ids.size());  // interleaved
  for (const core::TaskId id : ids) {
    EXPECT_EQ(names[id], "offer") << "task id " << id;
  }
}

// A task that fails and is retried re-enters kRunning; its submit->launch
// latency ends at the first launch and is recorded once.
TEST(IngressService, RetriedTaskRecordsSubmitLaunchOnce) {
  IngressFixture fx;
  IngressConfig config;
  config.clients = 10;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 400.0;
  auto proto = named_task("flaky", 0.01);
  proto.fail_probability = 0.4;
  proto.max_retries = 8;
  std::size_t launches = 0;
  fx.tmgr->on_transition(
      [&launches](const core::Task&, core::TaskState, core::TaskState to) {
        launches += to == core::TaskState::kRunning;
      });
  fx.launch(config, 200, {proto});
  fx.session.run();
  const auto stats = fx.svc->stats();
  ASSERT_GT(launches, 200u);  // retries happened
  EXPECT_EQ(stats.launched, 200u);
  EXPECT_EQ(fx.svc->submit_to_launch().count(), 200u);
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_EQ(fx.svc->window_size(), 0u);
}

// A task canceled before it launches reaches a final state without
// kRunning: it records turnaround but no launch, and its request's
// kSubmitLaunch span stays open (the launch never happened).
TEST(IngressService, TaskCanceledBeforeLaunchLeavesItsSpanOpen) {
  IngressFixture fx;
  const obs::Tracer& tracer = fx.session.enable_tracing();
  IngressConfig config;
  config.clients = 10;
  config.arrival.kind = ArrivalKind::kPoisson;
  config.arrival.rate = 400.0;
  // Every third task is canceled while still in TMGR intake.
  fx.tmgr->on_transition([&fx](const core::Task& task, core::TaskState,
                               core::TaskState to) {
    if (to == core::TaskState::kTmgrScheduling && task.id() % 3 == 0) {
      EXPECT_TRUE(fx.tmgr->cancel(task.id()));
    }
  });
  fx.launch(config, 150, {named_task("offer", 0.01)});
  fx.session.run();
  const auto stats = fx.svc->stats();
  std::size_t canceled = 0;
  for (const core::TaskId id : fx.svc->accepted_ids()) canceled += id % 3 == 0;
  ASSERT_GT(canceled, 0u);
  EXPECT_EQ(stats.completed, 150u);
  EXPECT_EQ(fx.svc->turnaround().count(), 150u);
  EXPECT_EQ(stats.launched, 150u - canceled);
  EXPECT_EQ(fx.svc->submit_to_launch().count(), 150u - canceled);
  EXPECT_EQ(fx.svc->window_size(), 0u);
  // One span begin per accepted offer, "req-0" onwards; an end for each
  // launched one only.
  std::vector<std::string> begun, ended;
  tracer.for_each([&](const obs::Record& r) {
    if (r.type != obs::SpanType::kSubmitLaunch) return;
    (r.kind == obs::RecordKind::kBegin ? begun : ended).push_back(r.entity);
  });
  ASSERT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(begun.size(), 150u);
  for (std::size_t i = 0; i < begun.size(); ++i) {
    EXPECT_EQ(begun[i], "req-" + std::to_string(i));
  }
  EXPECT_EQ(ended.size(), 150u - canceled);
}

// ----------------------------------------------------------- batch intake

TEST(TaskManagerBatch, SubmitBatchDeliversInOrderWithOneIntakeCost) {
  IngressFixture fx;
  std::vector<core::TaskDescription> batch(10);
  for (auto& d : batch) d.demand.cores = 1;
  std::vector<core::TaskId> done;
  fx.tmgr->on_complete([&done](const core::Task& task) {
    if (task.state() == core::TaskState::kDone) done.push_back(task.id());
  });
  const std::string first = fx.tmgr->submit(batch[0]);
  const core::TaskIdRange ids = fx.tmgr->submit_batch(batch);
  // The batch's ids follow the single submit's, in batch order.
  EXPECT_EQ(ids.begin, fx.tmgr->task(first).id() + 1);
  EXPECT_EQ(ids.size(), 10u);
  EXPECT_EQ(fx.tmgr->submitted(), 11u);
  EXPECT_GE(fx.tmgr->intake_backlog(), 1u);  // one transaction in service
  fx.session.run();
  EXPECT_EQ(fx.tmgr->finished(), 11u);
  std::sort(done.begin(), done.end());
  ASSERT_EQ(done.size(), 11u);
  for (core::TaskId id = ids.begin; id != ids.end; ++id) {
    EXPECT_EQ(done[id - ids.begin + 1], id);
  }
  EXPECT_EQ(fx.tmgr->submit_batch({}).size(), 0u);
}

}  // namespace
}  // namespace flotilla::ingress
