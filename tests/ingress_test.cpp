// Service-mode ingress tests (docs/ingress.md): arrival determinism,
// intake batching, admission edge cases, and the conservation-under-
// rejection invariant the fuzz harness checks at scale.
#include <gtest/gtest.h>

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

  void start(IngressConfig config, int tasks) {
    config.total_offers = tasks;
    svc = std::make_unique<IngressService>(session, *tmgr, config);
    core::TaskDescription proto;
    proto.demand.cores = 1;
    svc->start({proto});
    session.run();
  }
};

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
// engage the defer path must accept the same uids in the same order.
TEST(IngressService, DeferReleaseOrderingIsDeterministic) {
  std::vector<std::string> uid_sequences[2];
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
    uid_sequences[i] = fx.svc->accepted_uids();
    offered[i] = stats.offered;
  }
  EXPECT_EQ(offered[0], offered[1]);
  EXPECT_EQ(uid_sequences[0], uid_sequences[1]);
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
    for (const auto& uid : fx.svc->accepted_uids()) {
      fingerprints[i] << uid << ",";
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

// ----------------------------------------------------------- batch intake

TEST(TaskManagerBatch, SubmitBatchDeliversInOrderWithOneIntakeCost) {
  IngressFixture fx;
  std::vector<core::TaskDescription> batch(10);
  for (auto& d : batch) d.demand.cores = 1;
  const auto uids = fx.tmgr->submit_batch(batch);
  EXPECT_EQ(uids.size(), 10u);
  EXPECT_EQ(fx.tmgr->submitted(), 10u);
  EXPECT_GE(fx.tmgr->intake_backlog(), 1u);  // one transaction in service
  fx.session.run();
  EXPECT_EQ(fx.tmgr->finished(), 10u);
  for (const auto& uid : uids) {
    EXPECT_EQ(fx.tmgr->task(uid).state(), core::TaskState::kDone);
  }
  EXPECT_EQ(fx.tmgr->submit_batch({}).size(), 0u);
}

}  // namespace
}  // namespace flotilla::ingress
