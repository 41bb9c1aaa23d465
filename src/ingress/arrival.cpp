#include "ingress/arrival.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/strfmt.hpp"

namespace flotilla::ingress {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

std::string to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDiurnal:
      return "diurnal";
    case ArrivalKind::kBursty:
      return "bursty";
    case ArrivalKind::kClosed:
      return "closed";
  }
  return "?";
}

std::string ArrivalConfig::to_string() const {
  const double param = open_loop() ? rate : think;
  return ingress::to_string(kind) + ":" + util::exact_double(param);
}

ArrivalConfig ArrivalConfig::parse(const std::string& token) {
  ArrivalConfig config;
  const auto colon = token.find(':');
  const auto kind = token.substr(0, colon);
  if (kind == "poisson") {
    config.kind = ArrivalKind::kPoisson;
  } else if (kind == "diurnal") {
    config.kind = ArrivalKind::kDiurnal;
  } else if (kind == "bursty") {
    config.kind = ArrivalKind::kBursty;
  } else if (kind == "closed") {
    config.kind = ArrivalKind::kClosed;
  } else {
    util::raise("arrival: unknown kind: ", kind);
  }
  if (colon != std::string::npos) {
    const auto value = token.substr(colon + 1);
    try {
      std::size_t used = 0;
      const double param = std::stod(value, &used);
      if (used != value.size() || !std::isfinite(param) || param <= 0.0) {
        util::raise("arrival: bad parameter: ", value);
      }
      (config.open_loop() ? config.rate : config.think) = param;
    } catch (const std::invalid_argument&) {
      util::raise("arrival: bad parameter: ", value);
    } catch (const std::out_of_range&) {
      util::raise("arrival: parameter out of range: ", value);
    }
  }
  return config;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed, "ingress.arrivals") {
  FLOT_CHECK(config.open_loop(), "closed-loop arrivals have no gap process");
  FLOT_CHECK(config.rate > 0.0, "arrival rate must be positive");
  if (config_.kind == ArrivalKind::kBursty) {
    FLOT_CHECK(config_.burst_factor * config_.burst_duty < 1.0,
               "bursty arrivals need burst_factor * burst_duty < 1");
    // duty * storm + (1 - duty) * quiet == rate, so the long-run average
    // offered load is the configured rate regardless of burst shape.
    storm_rate_ = config_.burst_factor * config_.rate;
    quiet_rate_ = config_.rate *
                  (1.0 - config_.burst_factor * config_.burst_duty) /
                  (1.0 - config_.burst_duty);
    sojourn_left_ = rng_.exponential(quiet_sojourn_mean());
  }
}

double ArrivalProcess::next_gap(double now) {
  switch (config_.kind) {
    case ArrivalKind::kPoisson:
      return rng_.exponential(1.0 / config_.rate);
    case ArrivalKind::kDiurnal: {
      // Thinning (Lewis-Shedler): candidate arrivals at the envelope peak
      // rate, each accepted with probability lambda(t)/lambda_max. The
      // amplitude is < 1 so lambda(t) > 0 everywhere.
      const double peak = config_.rate * (1.0 + config_.diurnal_amplitude);
      double t = now;
      for (;;) {
        t += rng_.exponential(1.0 / peak);
        const double lambda =
            config_.rate *
            (1.0 + config_.diurnal_amplitude *
                       std::sin(kTwoPi * t / config_.diurnal_period));
        if (rng_.uniform() * peak <= lambda) return t - now;
      }
    }
    case ArrivalKind::kBursty: {
      // Within a phase arrivals are Poisson at the phase rate; a candidate
      // gap overshooting the phase's remaining sojourn advances to the
      // phase boundary and resamples (memorylessness makes this exact).
      double elapsed = 0.0;
      for (;;) {
        const double rate = storm_ ? storm_rate_ : quiet_rate_;
        const double gap = rng_.exponential(1.0 / rate);
        if (gap <= sojourn_left_) {
          sojourn_left_ -= gap;
          return elapsed + gap;
        }
        elapsed += sojourn_left_;
        storm_ = !storm_;
        sojourn_left_ = rng_.exponential(
            storm_ ? config_.burst_sojourn : quiet_sojourn_mean());
      }
    }
    case ArrivalKind::kClosed:
      break;
  }
  util::raise("arrival: closed-loop arrivals have no gap process");
}

double ArrivalProcess::quiet_sojourn_mean() const {
  // Duty cycle d with mean storm sojourn s implies mean quiet sojourn
  // s * (1 - d) / d.
  return config_.burst_sojourn * (1.0 - config_.burst_duty) /
         config_.burst_duty;
}

}  // namespace flotilla::ingress
