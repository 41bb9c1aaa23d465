#include "ingress/ingress.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"

namespace flotilla::ingress {

namespace {

// The kSubmitLaunch span entity of the n-th accepted offer, formatted only
// when tracing is on.
std::string request_entity(std::uint64_t n) {
  return "req-" + std::to_string(n);
}

}  // namespace

IngressService::IngressService(core::Session& session, core::TaskManager& tmgr,
                               IngressConfig config)
    : session_(session),
      tmgr_(tmgr),
      config_(std::move(config)),
      admission_(config_.admit),
      batcher_(session.engine(), config_.batch,
               [this](std::span<core::TaskDescription> batch) {
                 commit(batch);
               }),
      client_rng_(session.seed(), "ingress.clients"),
      obs_trace_(session.trace_handle()) {
  FLOT_CHECK(config_.clients >= 1, "ingress: clients must be >= 1");
  FLOT_CHECK(config_.in_flight_limit >= 1,
             "ingress: in_flight_limit must be >= 1");
  // Launch/terminal observation rides the shared transition-hook fanout,
  // coexisting with the invariant monitor and the journal scribe; tasks
  // not admitted through this service find no live offer in the window.
  tmgr_.on_transition(
      [this](const core::Task& task, core::TaskState, core::TaskState to) {
        on_transition(task, to);
      });
}

void IngressService::start(std::vector<core::TaskDescription> prototypes) {
  FLOT_CHECK(!prototypes.empty(), "ingress: prototype set must be non-empty");
  FLOT_CHECK(prototypes_.empty() && fresh_offers_ == 0,
             "ingress: start() may be called once");
  prototypes_ = std::move(prototypes);
  if (config_.total_offers <= 0) return;
  if (config_.arrival.open_loop()) {
    arrivals_ =
        std::make_unique<ArrivalProcess>(config_.arrival, session_.seed());
    schedule_open_arrival();
  } else {
    client_in_flight_.assign(static_cast<std::size_t>(config_.clients), 0);
    // Each client slot staggers its first request by one think time so a
    // million synchronized clients do not all arrive at t=0.
    for (int client = 0; client < config_.clients; ++client) {
      for (int slot = 0; slot < config_.in_flight_limit; ++slot) {
        schedule_closed_offer(client,
                              client_rng_.exponential(config_.arrival.think));
      }
    }
  }
}

void IngressService::schedule_open_arrival() {
  if (fresh_offers_ >= config_.total_offers) return;
  const double gap = arrivals_->next_gap(session_.now());
  session_.engine().in(gap, [this] {
    if (fresh_offers_ >= config_.total_offers) return;
    ++fresh_offers_;
    // The aggregate stream attributes each arrival to a client drawn from
    // the population — O(1) state for any population size.
    const int client =
        config_.clients > 1
            ? static_cast<int>(client_rng_.uniform_int(
                  0, static_cast<std::int64_t>(config_.clients) - 1))
            : 0;
    make_offer(client, 0, next_prototype());
    schedule_open_arrival();
  });
}

void IngressService::schedule_closed_offer(int client, double delay) {
  session_.engine().in(delay, [this, client] {
    if (fresh_offers_ >= config_.total_offers) return;
    ++fresh_offers_;
    make_offer(client, 0, next_prototype());
  });
}

std::size_t IngressService::next_prototype() const {
  return static_cast<std::size_t>(request_seq_) % prototypes_.size();
}

void IngressService::make_offer(int client, int prior_defers,
                                std::size_t prototype) {
  const Verdict verdict = admission_.offer(intake_depth(), prior_defers);
  switch (verdict) {
    case Verdict::kAccept: {
      obs_trace_.instant(obs::SpanType::kAdmission, "ingress", "accept",
                         static_cast<double>(client));
      Offer offer;
      offer.time = session_.now();
      offer.request = request_seq_;
      offer.client = client;
      offer.awaiting_launch = true;
      if (obs_trace_) {
        obs_trace_.begin(obs::SpanType::kSubmitLaunch, "ingress",
                         request_entity(offer.request),
                         static_cast<double>(client));
      }
      if (!config_.arrival.open_loop()) {
        auto& in_flight =
            client_in_flight_[static_cast<std::size_t>(client)];
        ++in_flight;
        if (static_cast<std::size_t>(in_flight) > max_client_in_flight_) {
          max_client_in_flight_ = static_cast<std::size_t>(in_flight);
        }
      }
      ++request_seq_;
      // Metadata first: the batcher may commit synchronously when the
      // batch fills, and commit() consumes uncommitted_ front-to-back.
      uncommitted_.push_back(offer);
      batcher_.add(prototypes_[prototype]);
      break;
    }
    case Verdict::kDefer: {
      obs_trace_.instant(obs::SpanType::kAdmission, "ingress", "defer",
                         static_cast<double>(client));
      ++pending_reoffers_;
      session_.engine().in(
          admission_.defer_delay(prior_defers),
          [this, client, prior_defers, prototype] {
            --pending_reoffers_;
            make_offer(client, prior_defers + 1, prototype);
          });
      break;
    }
    case Verdict::kReject:
      obs_trace_.instant(obs::SpanType::kAdmission, "ingress", "reject",
                         static_cast<double>(client));
      // A refused closed-loop client thinks, then comes back with a fresh
      // request; open-loop clients are oblivious by definition.
      if (!config_.arrival.open_loop()) {
        schedule_closed_offer(client,
                              client_rng_.exponential(config_.arrival.think));
      }
      break;
  }
}

void IngressService::commit(std::span<core::TaskDescription> batch) {
  const core::TaskIdRange ids = tmgr_.submit_batch(batch);
  FLOT_CHECK(ids.size() == uncommitted_.size(), "ingress: committed ",
             ids.size(), " tasks for ", uncommitted_.size(), " offers");
  for (std::size_t i = 0; i < uncommitted_.size(); ++i) {
    const auto id = static_cast<core::TaskId>(ids.begin + i);
    window_.push(id, uncommitted_[i]);
    accepted_ids_.push_back(id);
  }
  uncommitted_.clear();
}

void IngressService::on_transition(const core::Task& task,
                                   core::TaskState to) {
  const bool finished = core::is_final(to);
  if (to != core::TaskState::kRunning && !finished) return;
  Offer* offer = window_.find(task.id());
  if (offer == nullptr) return;  // not admitted through ingress
  if (!finished) {
    // First launch only: retries re-enter kRunning but the user-visible
    // submit->launch latency ends when the payload first starts.
    if (!offer->awaiting_launch) return;
    offer->awaiting_launch = false;
    submit_to_launch_.record(session_.now() - offer->time);
    ++launched_;
    if (obs_trace_) {
      obs_trace_.end(obs::SpanType::kSubmitLaunch, "ingress",
                     request_entity(offer->request));
    }
    return;
  }
  ++completed_;
  turnaround_.record(session_.now() - offer->time);
  // Canceled/failed before launch: the request's kSubmitLaunch span stays
  // open (the launch never happened) and surfaces as an unclosed begin.
  if (!config_.arrival.open_loop()) {
    const int client = offer->client;
    --client_in_flight_[static_cast<std::size_t>(client)];
    schedule_closed_offer(client,
                          client_rng_.exponential(config_.arrival.think));
  }
  window_.retire(*offer);
}

IngressStats IngressService::stats() const {
  IngressStats stats;
  stats.offered = admission_.offered();
  stats.accepted = admission_.accepted();
  stats.rejected = admission_.rejected();
  stats.deferred = admission_.deferred();
  stats.batches = batcher_.batches();
  stats.batched_tasks = batcher_.batched_tasks();
  stats.max_batch = batcher_.max_batch_seen();
  stats.launched = launched_;
  stats.completed = completed_;
  stats.max_client_in_flight = max_client_in_flight_;
  return stats;
}

}  // namespace flotilla::ingress
