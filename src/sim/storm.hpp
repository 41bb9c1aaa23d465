// Event storm: a synthetic workload for exercising the partitioned
// engine, its only client (docs/sharding.md).
//
// `actors` independent event chains, each pinned to shard (actor % shards),
// step through `steps` events. Every step mixes the actor's running FNV
// hash with the event time and step index, then schedules the next step
// after an exponential inter-event delay drawn from the actor's own
// RngStream. With probability `send_probability` a step also posts a
// cross-actor message (delay >= `min_send_delay`), which mixes the
// sender's identity into the receiver's hash when it fires on the
// receiver's shard.
//
// The construction makes the observable execution invariant under the
// shard count and thread count:
//  * all RNG draws happen on an actor's own sequential chain, so draw
//    order never depends on cross-actor interleaving;
//  * all timestamps are continuous-valued draws, so cross-shard heap ties
//    (the one place per-shard sequence numbers could show through) have
//    probability zero;
//  * every cross-actor delay is at least `min_send_delay`, so as long as
//    the engine lookahead stays <= that floor no delivery is ever clamped
//    to a window end.
// The fingerprint — per-actor hashes folded in actor-id order — is
// therefore byte-identical for any shards x threads combination, which is
// exactly what tests/sharded_engine_test.cpp's matrix asserts and what the
// fuzz harness cross-checks against a sequential reference run.
//
// Actor state is written only by events on the owning actor's shard, so
// the storm is safe (and TSan-clean) under Config::threads > 1 even
// though the wider Flotilla stack is still pinned to one thread.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace flotilla::sim {

struct StormConfig {
  int actors = 64;
  int steps = 100;
  int shards = 1;
  int threads = 1;
  Time lookahead = 0.0;        // engine window width; keep <= min_send_delay
  Time mean_period = 1.0e-3;   // mean inter-step delay per actor
  Time min_send_delay = 2.0e-3;
  double send_probability = 0.25;
  std::uint64_t seed = 42;
};

struct StormResult {
  std::uint64_t fingerprint = 0;  // FNV fold of per-actor hashes
  std::uint64_t events = 0;       // events processed by the engine
  Time makespan = 0.0;            // engine clock when the storm drained
};

// Runs the storm to completion on a fresh engine and returns the
// deterministic fingerprint. Invariant: for a fixed (seed, actors, steps,
// mean_period, min_send_delay, send_probability) the result is identical
// for every shards/threads/lookahead <= min_send_delay combination.
StormResult run_storm(const StormConfig& config);

}  // namespace flotilla::sim
