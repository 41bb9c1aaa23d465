// IngressService: a simulated client population in front of core::Session
// (docs/ingress.md; ROADMAP item 3).
//
// Drives open-loop (Poisson / diurnal / bursty) or closed-loop arrival
// processes of task offers onto a TaskManager, classifies every offer
// through the AdmissionController against the bounded intake depth, and
// commits admitted offers through the IntakeBatcher as amortized
// flux-job-ingest-style transactions. Per-request submit->launch latency
// (client offer until the payload starts) is recorded into an
// analytics::LatencyHistogram and as obs kSubmitLaunch spans, so the
// OverheadReport and the streaming-latency bench read p50/p99/p999 from
// the same records.
//
// Scale: open-loop populations superpose into one aggregate arrival
// stream (see arrival.hpp), so state is O(1) in the client count — a
// 10^6-client population costs exactly one pending timer. Closed-loop
// populations keep one think-timer slot per client and are meant for
// moderate N. All randomness derives from named RngStreams off the
// session seed and every event goes through the engine, so same-seed
// traces are byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analytics/latency.hpp"
#include "core/session.hpp"
#include "core/task_manager.hpp"
#include "ingress/admission.hpp"
#include "ingress/arrival.hpp"
#include "ingress/batcher.hpp"
#include "sim/random.hpp"

namespace flotilla::ingress {

struct IngressConfig {
  // Population size. Open loop: a label space for attribution (arrivals
  // aggregate); closed loop: the number of independent think-loop
  // clients.
  int clients = 1;
  ArrivalConfig arrival;
  AdmitConfig admit;
  BatcherConfig batch;
  // Fresh offers to generate before the population goes quiet (deferred
  // re-offers do not consume this budget).
  int total_offers = 0;
  // Closed loop: concurrent outstanding requests allowed per client.
  int in_flight_limit = 1;
};

struct IngressStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deferred = 0;
  std::uint64_t batches = 0;          // intake transactions committed
  std::uint64_t batched_tasks = 0;    // tasks across all transactions
  std::size_t max_batch = 0;          // largest single transaction
  std::uint64_t launched = 0;         // accepted tasks whose payload started
  std::uint64_t completed = 0;        // accepted tasks reaching a final state
  std::size_t max_client_in_flight = 0;  // closed loop: peak per-client

  // Conservation under rejection: every offer classified exactly once.
  bool conserved() const {
    return offered == accepted + rejected + deferred;
  }
};

class IngressService {
 public:
  IngressService(core::Session& session, core::TaskManager& tmgr,
                 IngressConfig config);

  IngressService(const IngressService&) = delete;
  IngressService& operator=(const IngressService&) = delete;

  // Starts the arrival processes. Fresh offer i draws its task from
  // prototypes[i % prototypes.size()]; must be called at most once, with
  // a non-empty prototype set, before the engine drains.
  void start(std::vector<core::TaskDescription> prototypes);

  IngressStats stats() const;
  const AdmissionController& admission() const { return admission_; }
  const analytics::LatencyHistogram& submit_to_launch() const {
    return submit_to_launch_;
  }
  // Client-visible turnaround: offer acceptance until the task reaches a
  // final state (includes intake wait, batching, queueing, and the
  // payload itself). The streaming-latency bench reads this instead of
  // re-deriving it from TMGR state times, which would hide the intake
  // and batch wait in front of kTmgrScheduling.
  const analytics::LatencyHistogram& turnaround() const {
    return turnaround_;
  }
  // Uids of admitted tasks in commit order (grows over the run); fault
  // injection draws cancellation targets from here.
  const std::vector<std::string>& accepted_uids() const {
    return accepted_uids_;
  }

  // Current bounded-intake depth the admission verdicts are made against.
  std::size_t intake_depth() const {
    return batcher_.pending() + tmgr_.intake_backlog();
  }

  // True once the fresh-offer budget is spent and no deferred re-offer or
  // unflushed batch remains (checked by the harness after drain).
  bool quiescent() const {
    return fresh_offers_ == config_.total_offers && pending_reoffers_ == 0 &&
           batcher_.pending() == 0;
  }

 private:
  struct Offer {
    double time = 0.0;      // virtual time of the accepted offer
    int client = 0;
    std::string request;    // span entity: "req-<n>"
  };

  void schedule_open_arrival();
  void schedule_closed_offer(int client, double delay);
  void make_offer(int client, int prior_defers,
                  core::TaskDescription description);
  void commit(std::vector<core::TaskDescription> batch);
  void on_transition(const core::Task& task, core::TaskState to);
  core::TaskDescription next_prototype();

  core::Session& session_;
  core::TaskManager& tmgr_;
  IngressConfig config_;
  AdmissionController admission_;
  IntakeBatcher batcher_;
  sim::RngStream client_rng_;
  std::unique_ptr<ArrivalProcess> arrivals_;  // open loop only
  std::vector<core::TaskDescription> prototypes_;

  int fresh_offers_ = 0;          // fresh offers issued so far
  std::uint64_t request_seq_ = 0;
  int pending_reoffers_ = 0;      // deferred re-offers not yet re-offered
  std::deque<Offer> uncommitted_;  // accepted offers awaiting batch commit
  std::unordered_map<std::string, Offer> awaiting_launch_;  // uid -> offer
  std::unordered_map<std::string, Offer> admitted_;  // uid -> offer, to final
  std::vector<int> client_in_flight_;                // closed loop
  std::vector<std::string> accepted_uids_;
  analytics::LatencyHistogram submit_to_launch_;
  analytics::LatencyHistogram turnaround_;
  obs::TraceHandle obs_trace_;
  std::uint64_t launched_ = 0;
  std::uint64_t completed_ = 0;
  std::size_t max_client_in_flight_ = 0;
};

}  // namespace flotilla::ingress
