// Tests for the simulation fuzzing harness (src/check/): spec round-trip,
// generator validity/determinism, clean runs over generated scenarios, the
// invariant checkers catching a deliberately injected over-commit bug, and
// the shrinker reducing that failure to a minimal replayable spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "check/generator.hpp"
#include "check/invariants.hpp"
#include "check/runner.hpp"
#include "check/shrinker.hpp"
#include "check/spec.hpp"
#include "sim/random.hpp"

namespace flotilla::check {
namespace {

bool has_violation(const RunResult& result, const std::string& invariant) {
  return std::any_of(
      result.violations.begin(), result.violations.end(),
      [&](const Violation& v) { return v.invariant == invariant; });
}

// Expects `line` to be refused with an error message containing `what`.
void rejects(const std::string& line, const std::string& what) {
  try {
    ScenarioSpec::parse(line);
    ADD_FAILURE() << line << " was accepted";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << line << ": " << e.what();
  }
}

// ------------------------------------------------------------ spec codec

TEST(ScenarioSpec, RoundTripsThroughString) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng);
    const auto line = spec.to_string();
    EXPECT_EQ(ScenarioSpec::parse(line).to_string(), line);
  }
}

TEST(ScenarioSpec, RoundTripsFaultsAndBugField) {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.nodes = 6;
  spec.backends = {{.type = "flux", .partitions = 2, .nodes = 3,
                    .flux_backfill_depth = 8},
                   {.type = "dragon", .partitions = 1, .nodes = 3}};
  spec.workload = "hetero";
  spec.duration = 1.25;
  spec.fail_probability = 0.125;
  spec.faults.push_back(
      {FaultSpec::Kind::kCrash, 12.5, "flux", 1, 0});
  spec.faults.push_back({FaultSpec::Kind::kCancelStorm, 3.0, "", 0, 7});
  spec.bug = "overcommit";
  const auto line = spec.to_string();
  const auto parsed = ScenarioSpec::parse(line);
  EXPECT_EQ(parsed.to_string(), line);
  ASSERT_EQ(parsed.faults.size(), 2u);
  EXPECT_EQ(parsed.faults[0].kind, FaultSpec::Kind::kCrash);
  EXPECT_EQ(parsed.faults[0].backend, "flux");
  EXPECT_EQ(parsed.faults[1].count, 7);
  EXPECT_EQ(parsed.bug, "overcommit");
  EXPECT_EQ(parsed.backends[0].flux_backfill_depth, 8);
}

TEST(ScenarioSpec, RoundTripsCrashRecoverDimensions) {
  ScenarioSpec spec;
  spec.seed = 5;
  spec.crash_at = 17;
  const auto line = spec.to_string();
  EXPECT_NE(line.find(";crash_at=17"), std::string::npos) << line;
  EXPECT_EQ(line.find(";recover="), std::string::npos)
      << "recover=true is the default and must not be emitted";
  EXPECT_EQ(ScenarioSpec::parse(line).crash_at, 17u);
  spec.recover = false;
  const auto survive = spec.to_string();
  EXPECT_NE(survive.find(";recover=0"), std::string::npos) << survive;
  const auto parsed = ScenarioSpec::parse(survive);
  EXPECT_EQ(parsed.crash_at, 17u);
  EXPECT_FALSE(parsed.recover);
  EXPECT_EQ(parsed.to_string(), survive);
  // Pre-recovery spec lines stay parseable and stable (no crash keys).
  ScenarioSpec def;
  EXPECT_EQ(def.to_string().find("crash_at"), std::string::npos);
}

TEST(ScenarioSpec, ParseRejectsGarbage) {
  EXPECT_THROW(ScenarioSpec::parse("frobnicate=1"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("nodes"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("tasks=many"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("faults=explode@1:flux:0"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("arrival=poisson"), util::Error);
  EXPECT_THROW(ScenarioSpec::parse("admit=reject"), util::Error);
  // Out-of-range integers are labeled errors, never narrowed or wrapped;
  // malformed doubles and unknown arrival kinds are labeled errors too,
  // so --replay refuses them (exit 2) instead of running them into an
  // engine check.
  rejects("nodes=4294967300", "spec: nodes out of range");
  rejects("nodes=0", "spec: nodes out of range");
  rejects("tasks=4294967306", "spec: tasks out of range");
  rejects("tasks=-1", "spec: tasks out of range");
  rejects("faults=crash@2:flux:-1", "spec: crash index out of range");
  rejects("retries=-1", "spec: retries out of range");
  rejects("cores=-1", "spec: cores out of range");
  rejects("gpus=-1", "spec: gpus out of range");
  rejects("clients=0", "spec: clients out of range");
  rejects("tasks=99999999999999999999", "spec: tasks out of range");
  rejects("duration=nan", "spec: non-finite duration");
  rejects("duration=-1", "spec: duration out of range");
  rejects("duration=1e999", "spec: duration out of range");
  rejects("fail=2", "spec: fail out of range");
  rejects("fail=-0.5", "spec: fail out of range");
  rejects("faults=crash@-1:flux:0", "spec: fault time out of range");
  rejects("faults=cancel@inf:3", "spec: non-finite fault time");
  rejects("clients=4;arrival=foo:1", "arrival: unknown kind: foo");
  rejects("clients=4;arrival=closed:inf", "spec: non-finite arrival param");
  rejects("clients=4;arrival=poisson:nan", "spec: non-finite arrival param");
  rejects("clients=4;arrival=poisson:-5", "spec: arrival param out of range");
  // The bounds admit every value the generator draws, ingress included.
  sim::RngStream rng(3, "fuzz.generate");
  for (int i = 0; i < 200; ++i) {
    const auto spec =
        generate_scenario(rng, GeneratorOptions{.force_ingress = i % 2 == 1});
    EXPECT_NO_THROW(ScenarioSpec::parse(spec.to_string())) << spec.to_string();
  }
}

TEST(ScenarioSpec, ParseAcceptsRangeBoundaries) {
  // Each bound is inclusive: the edge values parse and keep their value.
  const auto spec = ScenarioSpec::parse(
      "nodes=1;tasks=0;cores=0;gpus=0;retries=0;duration=0;fail=1;"
      "clients=1;arrival=closed:0;faults=crash@0:flux:0");
  EXPECT_EQ(spec.nodes, 1);
  EXPECT_EQ(spec.tasks, 0);
  EXPECT_EQ(spec.cores, 0);
  EXPECT_EQ(spec.gpus, 0);
  EXPECT_EQ(spec.max_retries, 0);
  EXPECT_EQ(spec.duration, 0.0);
  EXPECT_EQ(spec.fail_probability, 1.0);
  EXPECT_EQ(spec.clients, 1);
  EXPECT_EQ(spec.arrival_param, 0.0);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].time, 0.0);
  EXPECT_EQ(spec.faults[0].index, 0);
  // int-sized fields take INT_MAX but not one past it.
  EXPECT_EQ(ScenarioSpec::parse("tasks=2147483647").tasks, 2147483647);
  EXPECT_THROW(ScenarioSpec::parse("tasks=2147483648"), util::Error);
}

// Integers are taken only in the form to_string() writes, so a line can
// mean one number or nothing: no sign on an unsigned key (a negative seed
// or crash point once wrapped to 2^64 - 1 and ran), no '+', no blanks, no
// leading zeros.
TEST(ScenarioSpec, NegativeUnsignedKeysAreRejectedNotWrapped) {
  rejects("seed=-1", "spec: bad integer for seed: -1");
  rejects("crash_at=-1", "spec: bad integer for crash_at: -1");
  rejects("seed=18446744073709551616", "spec: seed out of range");
  EXPECT_EQ(ScenarioSpec::parse("seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST(ScenarioSpec, PlusSignsAreRejected) {
  rejects("tasks=+11", "spec: bad integer for tasks: +11");
  rejects("seed=+1", "spec: bad integer for seed: +1");
  rejects("backends=flux:p+2", "spec: bad integer for partitions: +2");
}

TEST(ScenarioSpec, BlanksAroundIntegersAreRejected) {
  rejects("tasks= 11", "spec: bad integer for tasks:  11");
  rejects("tasks=11 ", "spec: bad integer for tasks: 11 ");
  rejects("faults=cancel@1: 3", "spec: bad integer for cancel count");
}

TEST(ScenarioSpec, NonCanonicalIntegerFormsAreRejected) {
  rejects("tasks=011", "spec: bad integer for tasks: 011");
  rejects("tasks=-0", "spec: bad integer for tasks: -0");
  rejects("tasks=", "spec: bad integer for tasks: ");
  rejects("tasks=-", "spec: bad integer for tasks: -");
  EXPECT_EQ(ScenarioSpec::parse("tasks=0").tasks, 0);
  EXPECT_EQ(ScenarioSpec::parse("faults=cancel@1:-3").faults.at(0).count, -3);
}

// Doubles, like integers, have one text each: no blank, '+' or hex float,
// on any double key. The exponent forms exact_double writes still parse.
TEST(ScenarioSpec, NonCanonicalDoubleFormsAreRejected) {
  for (const std::string text : {" 2", "+2", "0x1p1", "+0x1p1"}) {
    rejects("duration=" + text, "spec: ");
    rejects("duration=" + text, "duration");
    rejects("faults=cancel@" + text + ":3", "fault time");
    rejects("clients=4;arrival=poisson:" + text, "arrival param");
  }
  rejects("duration=0x1p1", "spec: trailing junk in duration: 0x1p1");
  rejects("duration=+2", "spec: bad number for duration: +2");
  for (const std::string text : {"1e-05", "0.10000000000000001"}) {
    const double value = std::stod(text);
    const auto spec = ScenarioSpec::parse(
        "duration=" + text + ";faults=cancel@" + text +
        ":3;clients=4;arrival=poisson:" + text);
    EXPECT_EQ(spec.duration, value) << text;
    ASSERT_EQ(spec.faults.size(), 1u);
    EXPECT_EQ(spec.faults[0].time, value) << text;
    EXPECT_EQ(spec.arrival_param, value) << text;
    EXPECT_EQ(ScenarioSpec::parse(spec.to_string()).to_string(),
              spec.to_string());
  }
}

TEST(ScenarioSpec, RepeatedKeysAreRejected) {
  rejects("seed=1;nodes=2;tasks=11;duration=0;tasks=20",
          "spec: repeated key tasks");
  rejects("backends=flux;backends=dragon", "spec: repeated key backends");
  rejects("faults=cancel@1:3;faults=cancel@2:3", "spec: repeated key faults");
  // Every key the encoder writes appears once, so its lines still parse.
  const std::string line = ScenarioSpec{}.to_string();
  EXPECT_EQ(ScenarioSpec::parse(line).to_string(), line);
}

TEST(ScenarioSpec, RetiredEngineShapeKeysAreRejected) {
  // shards=/threads= shaped the sharded engine's storm oracle, which is
  // gone. A spec line that still carries one is refused with a labeled
  // error rather than run as if the key meant something.
  for (const char* line : {"seed=12;shards=4", "seed=12;threads=2",
                           "seed=12;shards=1"}) {
    try {
      ScenarioSpec::parse(line);
      ADD_FAILURE() << line << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("spec: retired key "),
                std::string::npos)
          << line << ": " << e.what();
    }
  }
  const std::string line = ScenarioSpec{}.to_string();
  EXPECT_EQ(line.find("shards="), std::string::npos);
  EXPECT_EQ(line.find("threads="), std::string::npos);
}

// Every name a spec key takes is checked at parse time, so --replay
// refuses a line naming something unknown (exit 2) instead of reporting an
// [exception] violation or running it with a default in its place.
TEST(ScenarioSpec, ParseRejectsUnknownBackendNames) {
  rejects("backends=foo", "spec: unknown backend type: foo");
  rejects("backends=flux:p1,slurm:n2", "spec: unknown backend type: slurm");
  rejects("backends=:p1", "spec: empty backend entry");
  // Only backends with a runtime to lose can be crashed.
  rejects("faults=crash@1:srun:0", "spec: unknown crash backend: srun");
  rejects("faults=crash@1:foo:0", "spec: unknown crash backend: foo");
}

TEST(ScenarioSpec, ParseRejectsUnknownWorkload) {
  rejects("workload=foo", "spec: unknown workload: foo");
  rejects("workload=", "spec: unknown workload: ");
  rejects("workload=NULL", "spec: unknown workload: NULL");
}

TEST(ScenarioSpec, ParseRejectsUnknownRouter) {
  rejects("router=foo", "spec: unknown router: foo");
  rejects("router=", "spec: unknown router: ");
}

TEST(ScenarioSpec, ParseRejectsUnknownPlacementPolicy) {
  rejects("placement=foo", "spec: unknown placement policy: foo");
  rejects("placement=first_fit", "spec: unknown placement policy: first_fit");
}

TEST(ScenarioSpec, ParseRejectsUnknownDragonQueue) {
  rejects("dragon_queue=foo", "spec: unknown dragon queue: foo");
  rejects("dragon_queue=lifo", "spec: unknown dragon queue: lifo");
}

TEST(ScenarioSpec, ParseRejectsUnknownAdmissionPolicyAndNegativeCapacity) {
  rejects("clients=4;admit=foo:1", "spec: unknown admission policy: foo");
  rejects("clients=4;admit=reject:-1", "spec: admit capacity out of range");
  rejects("clients=4;admit=defer:x", "spec: bad integer for admit capacity");
  EXPECT_EQ(ScenarioSpec::parse("clients=4;admit=defer:0").admit_capacity, 0);
}

TEST(ScenarioSpec, ParseRejectsUnknownBugInjection) {
  rejects("bug=foo", "spec: unknown bug injection: foo");
  rejects("bug=", "spec: unknown bug injection: ");
}

TEST(ScenarioSpec, EveryKnownNameRoundTrips) {
  const auto round_trips = [](ScenarioSpec spec) {
    const auto line = spec.to_string();
    EXPECT_EQ(ScenarioSpec::parse(line).to_string(), line);
  };
  for (const char* type : {"srun", "flux", "dragon", "prrte"}) {
    ScenarioSpec spec;
    spec.backends = {core::BackendSpec{type}};
    round_trips(spec);
  }
  for (const char* target : {"flux", "dragon", "prrte"}) {
    ScenarioSpec spec;
    FaultSpec crash;
    crash.backend = target;
    spec.faults.push_back(crash);
    round_trips(spec);
  }
  for (const char* workload : {"null", "sleep", "hetero", "impeccable"}) {
    ScenarioSpec spec;
    spec.workload = workload;
    round_trips(spec);
  }
  for (const char* router : {"static", "adaptive"}) {
    ScenarioSpec spec;
    spec.router = router;
    round_trips(spec);
  }
  for (const char* placement : {"first-fit", "best-fit", "gpu-pack"}) {
    ScenarioSpec spec;
    spec.placement = placement;
    round_trips(spec);
  }
  for (const char* queue : {"fifo", "priority"}) {
    ScenarioSpec spec;
    spec.dragon_queue = queue;
    round_trips(spec);
  }
  for (const char* admit : {"reject", "defer"}) {
    ScenarioSpec spec;
    spec.clients = 4;
    spec.admit = admit;
    round_trips(spec);
  }
  for (const char* bug : {"none", "overcommit", "state-loss"}) {
    ScenarioSpec spec;
    spec.bug = bug;
    round_trips(spec);
  }
}

TEST(ScenarioSpec, RoundTripsIngressDimensions) {
  ScenarioSpec spec;
  spec.seed = 9;
  spec.clients = 1000000;
  spec.arrival = "bursty";
  spec.arrival_param = 1250.5;
  spec.admit = "defer";
  spec.admit_capacity = 48;
  const auto line = spec.to_string();
  EXPECT_NE(line.find(";clients=1000000"), std::string::npos) << line;
  EXPECT_NE(line.find(";arrival=bursty:1250.5"), std::string::npos) << line;
  EXPECT_NE(line.find(";admit=defer:48"), std::string::npos) << line;
  const auto parsed = ScenarioSpec::parse(line);
  EXPECT_EQ(parsed.clients, 1000000);
  EXPECT_EQ(parsed.arrival, "bursty");
  EXPECT_DOUBLE_EQ(parsed.arrival_param, 1250.5);
  EXPECT_EQ(parsed.admit, "defer");
  EXPECT_EQ(parsed.admit_capacity, 48);
  EXPECT_EQ(parsed.to_string(), line);
  // Pre-ingress spec lines stay stable: clients=0 emits none of the keys.
  ScenarioSpec def;
  EXPECT_EQ(def.to_string().find("clients"), std::string::npos);
  EXPECT_EQ(def.to_string().find("arrival"), std::string::npos);
  EXPECT_EQ(def.to_string().find("admit"), std::string::npos);
}

// -------------------------------------------------------------- generator

TEST(Generator, IsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 17ull, 4242ull}) {
    sim::RngStream a(seed, "fuzz.generate");
    sim::RngStream b(seed, "fuzz.generate");
    EXPECT_EQ(generate_scenario(a).to_string(),
              generate_scenario(b).to_string());
  }
}

TEST(Generator, EngineShapeDrawsArePinned) {
  // The generator still makes the retired shards/threads draws and
  // discards them, so every seed generates the scenario it always did.
  // Each expected line is the one `flotilla-fuzz --verbose` printed
  // before the keys were retired, with its ;shards=N and ;threads=N
  // segments removed.
  const auto line = [](std::uint64_t seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    return generate_scenario(rng).to_string();
  };
  EXPECT_EQ(line(2),
            "seed=2019839242625703672;nodes=8;"
            "backends=dragon:p2:n8:d64;workload=hetero;tasks=11;"
            "duration=6.3897745290933159;cores=1;gpus=2;fail=0;retries=1;"
            "router=static;placement=gpu-pack;dragon_queue=priority;"
            "faults=crash@3.8341738188007257:dragon:1");
  EXPECT_EQ(line(4),
            "seed=2683775303281798652;nodes=1;"
            "backends=flux:p1:n1:d2;workload=hetero;tasks=97;"
            "duration=5.1557023383868952;cores=1;gpus=0;fail=0;retries=2;"
            "router=static;placement=gpu-pack;dragon_queue=fifo;"
            "clients=1000;arrival=diurnal:1284.3221821777975;"
            "admit=reject:119;faults=crash@9.2110807039017093:flux:0");
  EXPECT_EQ(line(8),
            "seed=3434885136435011889;nodes=3;"
            "backends=flux:p2:n3:d64;workload=null;tasks=43;duration=0;"
            "cores=1;gpus=0;fail=0.19345973985501055;retries=0;"
            "router=static;placement=gpu-pack;dragon_queue=fifo;clients=1;"
            "arrival=bursty:609.26320981197546;admit=defer:352;"
            "crash_at=139");
}

TEST(Generator, ProducesValidSpecs) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng);
    EXPECT_GE(spec.nodes, static_cast<int>(spec.backends.size()));
    int assigned = 0;
    for (const auto& b : spec.backends) {
      EXPECT_GE(b.nodes, 1);
      EXPECT_GE(b.partitions, 1);
      EXPECT_LE(b.partitions, b.nodes);
      assigned += b.nodes;
    }
    EXPECT_EQ(assigned, spec.nodes);
    const auto caps = unit_caps(spec);
    EXPECT_GE(caps.nodes, 1);
    // Sleep-workload demands stay within the smallest schedulable unit.
    EXPECT_LE(spec.cores, caps.cores);
    EXPECT_LE(spec.gpus, caps.gpus);
    for (const auto& f : spec.faults) {
      if (f.kind != FaultSpec::Kind::kCrash) continue;
      EXPECT_TRUE(f.backend == "flux" || f.backend == "dragon" ||
                  f.backend == "prrte")
          << "crash fault targets a backend without a crash surface";
    }
  }
}

TEST(Generator, ForcedIngressArmsEveryScenarioDeterministically) {
  GeneratorOptions force;
  force.force_ingress = true;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    sim::RngStream a(seed, "fuzz.generate");
    sim::RngStream b(seed, "fuzz.generate");
    const auto spec = generate_scenario(a, force);
    EXPECT_EQ(spec.to_string(), generate_scenario(b, force).to_string());
    EXPECT_GT(spec.clients, 0) << "force_ingress must arm every scenario";
    EXPECT_TRUE(spec.arrival == "poisson" || spec.arrival == "diurnal" ||
                spec.arrival == "bursty" || spec.arrival == "closed")
        << spec.arrival;
    EXPECT_GT(spec.arrival_param, 0.0);
    EXPECT_TRUE(spec.admit == "reject" || spec.admit == "defer");
    EXPECT_GE(spec.admit_capacity, 0);
    if (spec.arrival == "closed") {
      EXPECT_LE(spec.clients, 64) << "closed loops keep per-client state";
    }
  }
}

TEST(Runner, ForcedIngressScenariosHoldAllInvariants) {
  // Miniature of the nightly ingress-storm leg: forced clients/arrival/
  // admit dimensions, all oracles on (determinism, shard invariance,
  // conservation under rejection, closed-loop bounds, recovery).
  GeneratorOptions force;
  force.force_ingress = true;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng, force);
    const auto result = run_with_oracles(spec);
    EXPECT_TRUE(result.ok()) << "seed " << seed << " spec " << spec.to_string()
                             << " first violation: "
                             << result.violations.front().to_string();
  }
}

TEST(Shrinker, IngressDimensionsShrinkTowardTheClassicPath) {
  ScenarioSpec spec;
  spec.clients = 50000;
  spec.arrival = "bursty";
  spec.arrival_param = 900.0;
  spec.admit = "defer";
  spec.admit_capacity = 7;
  const auto cands = [](const ScenarioSpec& s) {
    // Exercise candidates() through a shrink that rejects everything: the
    // spec must be offered an ingress-free reduction.
    bool saw_ingress_free = false;
    shrink(s, [&saw_ingress_free](const ScenarioSpec& candidate) {
      if (candidate.clients == 0) saw_ingress_free = true;
      return false;
    }, 100);
    return saw_ingress_free;
  };
  EXPECT_TRUE(cands(spec));
  // A failure that needs ingress keeps it but simplifies the dimensions.
  const auto shrunk = shrink(
      spec,
      [](const ScenarioSpec& candidate) { return candidate.clients > 0; },
      400);
  EXPECT_EQ(shrunk.spec.clients, 1);
  EXPECT_EQ(shrunk.spec.arrival, "poisson");
  EXPECT_EQ(shrunk.spec.admit, "reject");
  EXPECT_EQ(shrunk.spec.admit_capacity, 256);
}

// ------------------------------------------------------ transition matrix

TEST(Invariants, TransitionMatrixMatchesLifecycleGraph) {
  using S = core::TaskState;
  EXPECT_TRUE(legal_transition(S::kNew, S::kTmgrScheduling));
  EXPECT_TRUE(legal_transition(S::kTmgrScheduling, S::kStagingInput));
  EXPECT_TRUE(legal_transition(S::kTmgrScheduling, S::kAgentScheduling));
  EXPECT_TRUE(legal_transition(S::kExecutorPending, S::kAgentScheduling));
  EXPECT_TRUE(legal_transition(S::kRunning, S::kAgentScheduling));
  EXPECT_TRUE(legal_transition(S::kRunning, S::kDone));
  EXPECT_TRUE(legal_transition(S::kStagingOutput, S::kCanceled));
  // No skipping forward, no moving backwards, nothing after a terminal.
  EXPECT_FALSE(legal_transition(S::kNew, S::kRunning));
  EXPECT_FALSE(legal_transition(S::kTmgrScheduling, S::kExecutorPending));
  EXPECT_FALSE(legal_transition(S::kAgentScheduling, S::kRunning));
  EXPECT_FALSE(legal_transition(S::kRunning, S::kNew));
  EXPECT_FALSE(legal_transition(S::kDone, S::kFailed));
  EXPECT_FALSE(legal_transition(S::kCanceled, S::kAgentScheduling));
  EXPECT_FALSE(legal_transition(S::kFailed, S::kDone));
}

// ----------------------------------------------------------- clean sweeps

TEST(Runner, GeneratedScenariosHoldAllInvariants) {
  // A miniature of the CI fuzz smoke: every generated scenario must pass
  // every invariant plus the run-twice determinism oracle.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(rng);
    const auto result = run_with_oracles(spec);
    EXPECT_TRUE(result.ok()) << "seed " << seed << " spec " << spec.to_string()
                             << " first violation: "
                             << result.violations.front().to_string();
    EXPECT_TRUE(result.ready);
  }
}

TEST(Runner, ReplayOfSerializedSpecIsBitIdentical) {
  sim::RngStream rng(7, "fuzz.generate");
  const auto spec = generate_scenario(rng);
  const auto direct = run_scenario(spec);
  const auto replayed = run_scenario(ScenarioSpec::parse(spec.to_string()));
  EXPECT_EQ(direct.fingerprint, replayed.fingerprint);
  EXPECT_EQ(direct.events, replayed.events);
  EXPECT_EQ(direct.done, replayed.done);
}

TEST(Runner, CrashIndexWrapsOverPartitions) {
  // A crash index past the partition count wraps modulo the count, which
  // is why the spec parser bounds the index below only.
  ScenarioSpec spec;
  spec.seed = 777;
  spec.nodes = 4;
  spec.backends = {{.type = "flux", .partitions = 2}};
  spec.workload = "sleep";
  spec.tasks = 64;
  spec.duration = 6.0;
  spec.cores = 8;
  spec.faults = {{FaultSpec::Kind::kCrash, 3.0, "flux", 1, 0}};
  const auto direct = run_scenario(spec);
  ASSERT_TRUE(direct.ok()) << direct.violations.front().to_string();
  EXPECT_GT(direct.failed, 0u);
  spec.faults[0].index = 5;  // 5 % 2 == 1
  const auto wrapped = run_scenario(spec);
  EXPECT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped.fingerprint, direct.fingerprint);
  EXPECT_EQ(wrapped.failed, direct.failed);
  spec.faults[0].index = 0;  // the other partition: a different run
  EXPECT_NE(run_scenario(spec).fingerprint, direct.fingerprint);
}

// ------------------------------------------------ crash/recover oracle

TEST(Recovery, TwoHundredSeededCrashScenariosRecoverByteEquivalent) {
  // The acceptance sweep (docs/recovery.md): 200 seeded crash/recover
  // scenarios across all four backends, each crashed at a seeded record
  // index, recovered from the surviving journal prefix, and required to
  // finish byte- and state-equivalent to the uninterrupted run. Kept
  // bounded by using small scenarios; the nightly CI leg runs the same
  // oracle over full generated scenarios.
  const char* const backends[] = {"srun", "flux", "dragon", "prrte"};
  RunOptions jopts;
  jopts.journal = true;
  int swept = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ScenarioSpec spec;
    spec.seed = seed;
    spec.nodes = 2 + static_cast<int>(seed % 3);
    spec.backends = {{backends[seed % 4]}};
    spec.workload = "sleep";
    spec.tasks = 4 + static_cast<int>(seed % 6);
    spec.duration = 1.0 + 0.25 * static_cast<double>(seed % 4);
    if (seed % 3 == 0) {
      spec.faults.push_back({FaultSpec::Kind::kCancelStorm, 2.0, "", 0, 2});
    }
    const auto reference = run_scenario(spec, jopts);
    ASSERT_TRUE(reference.ok()) << "seed " << seed << ": "
                                << reference.violations.front().to_string();
    const auto records = static_cast<std::uint64_t>(std::count(
        reference.journal.begin(), reference.journal.end(), '\n'));
    spec.crash_at = 1 + (seed * 7919) % records;  // seeded crash index
    spec.recover = seed % 10 != 0;  // every tenth: survive-only mode
    const auto violations = check_recovery(spec, reference);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << " crash_at=" << spec.crash_at << ": "
        << violations.front().to_string();
    ++swept;
  }
  EXPECT_EQ(swept, 200);
}

TEST(Recovery, OracleRunsInsideRunWithOracles) {
  // crash_at on a spec routes through run_with_oracles: base runs journal,
  // and the recovery oracle executes without violations on a clean spec.
  ScenarioSpec spec;
  spec.seed = 23;
  spec.nodes = 3;
  spec.backends = {{"flux"}};
  spec.workload = "sleep";
  spec.tasks = 8;
  spec.duration = 1.5;
  spec.crash_at = 20;
  const auto result = run_with_oracles(spec);
  EXPECT_TRUE(result.ok()) << result.violations.front().to_string();
  EXPECT_FALSE(result.journal.empty())
      << "a crash_at spec must journal its base runs";
}

// ------------------------------------- injected bug: caught then shrunk

TEST(Runner, InjectedOvercommitIsCaughtByConservation) {
  ScenarioSpec spec;
  spec.seed = 11;
  spec.nodes = 3;
  spec.backends = {{"srun"}};
  spec.workload = "sleep";
  spec.tasks = 30;
  spec.duration = 2.0;
  spec.bug = "overcommit";
  const auto result = run_scenario(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "conservation"))
      << "the leaked core must surface as a conservation violation";
  // The same spec without the bug passes — the checkers flag the defect,
  // not the scenario.
  spec.bug = "none";
  EXPECT_TRUE(run_scenario(spec).ok());
}

TEST(Shrinker, ReducesOvercommitFailureToMinimalReplayableSpec) {
  sim::RngStream rng(3, "fuzz.generate");
  auto spec = generate_scenario(rng);
  spec.bug = "overcommit";  // plant the defect in a busy scenario
  ASSERT_FALSE(run_scenario(spec).ok());

  const auto shrunk = shrink(
      spec,
      [](const ScenarioSpec& candidate) {
        return !run_scenario(candidate).ok();
      },
      400);

  // Still failing, still replayable from its serialized form.
  const auto replay = ScenarioSpec::parse(shrunk.spec.to_string());
  const auto result = run_scenario(replay);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "conservation"));

  // And actually minimal: the leak needs no tasks, no faults, no second
  // backend, and no workload payload.
  EXPECT_EQ(shrunk.spec.tasks, 0);
  EXPECT_TRUE(shrunk.spec.faults.empty());
  EXPECT_EQ(shrunk.spec.backends.size(), 1u);
  EXPECT_EQ(shrunk.spec.workload, "null");
  EXPECT_EQ(shrunk.spec.bug, "overcommit");  // the defect itself survives
  EXPECT_LE(shrunk.spec.nodes, 2);
}

TEST(Runner, InjectedStateLossIsCaughtAndShrunk) {
  // The seeded recovery defect: a controller that "recovers" but drops its
  // fault schedule. Invisible to every uninterrupted-run invariant — only
  // the crash/recover oracle can see it, as a journal divergence once the
  // dropped fault fails to fire during replay.
  ScenarioSpec spec;
  spec.seed = 11;
  spec.nodes = 4;
  spec.backends = {{"srun"}};
  spec.workload = "sleep";
  spec.tasks = 24;
  spec.duration = 5.0;
  spec.faults.push_back({FaultSpec::Kind::kCancelStorm, 6.0, "", 0, 8});
  spec.crash_at = 10;
  spec.bug = "state-loss";

  const auto result = run_with_oracles(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(has_violation(result, "recovery"))
      << "state loss must surface through the recovery oracle";
  // Inert without a crash: the bug only bites on the recovery path.
  ScenarioSpec uncrashed = spec;
  uncrashed.crash_at = 0;
  EXPECT_TRUE(run_with_oracles(uncrashed).ok());

  // Shrinks to a minimal spec that keeps the ingredients the bug needs:
  // the crash point, the fault schedule, and the defect flag.
  const auto shrunk = shrink(
      spec,
      [](const ScenarioSpec& candidate) {
        return !run_with_oracles(candidate).ok();
      },
      200);
  EXPECT_GT(shrunk.spec.crash_at, 0u);
  EXPECT_TRUE(shrunk.spec.recover);
  EXPECT_FALSE(shrunk.spec.faults.empty());
  EXPECT_EQ(shrunk.spec.bug, "state-loss");

  // Still failing, still replayable from its serialized form — the
  // flotilla-fuzz --replay workflow.
  const auto replay = ScenarioSpec::parse(shrunk.spec.to_string());
  const auto replayed = run_with_oracles(replay);
  EXPECT_FALSE(replayed.ok());
  EXPECT_TRUE(has_violation(replayed, "recovery"));
}

TEST(Shrinker, LeavesPassingSpecsAlone) {
  sim::RngStream rng(5, "fuzz.generate");
  const auto spec = generate_scenario(rng);
  int evaluations = 0;
  const auto shrunk = shrink(spec, [&evaluations](const ScenarioSpec&) {
    ++evaluations;
    return false;  // nothing fails
  });
  EXPECT_EQ(shrunk.spec.to_string(), spec.to_string());
  EXPECT_EQ(shrunk.evaluations, evaluations);
}

TEST(Shrinker, EveryCandidateReplaysFromItsSpecLine) {
  // A minimized spec is only useful if --replay accepts its line, so every
  // candidate the shrinker proposes must parse back to itself. A predicate
  // that always fails walks the shrinker through every reduction.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::RngStream rng(seed, "fuzz.generate");
    const auto spec = generate_scenario(
        rng, GeneratorOptions{.force_ingress = seed % 2 == 0});
    int candidates = 0;
    shrink(spec, [&candidates](const ScenarioSpec& candidate) {
      ++candidates;
      const auto line = candidate.to_string();
      try {
        EXPECT_EQ(ScenarioSpec::parse(line).to_string(), line);
      } catch (const util::Error& e) {
        ADD_FAILURE() << line << ": " << e.what();
      }
      return true;
    });
    EXPECT_GT(candidates, 0) << spec.to_string();
  }
}

}  // namespace
}  // namespace flotilla::check
