#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/server.hpp"
#include "util/error.hpp"

namespace flotilla::sim {
namespace {

TEST(Engine, StartsAtTimeZeroEmpty) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_TRUE(engine.empty());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, ProcessesEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(5.0, [&] { order.push_back(2); });
  engine.at(1.0, [&] { order.push_back(1); });
  engine.at(9.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 9.0);
}

TEST(Engine, TiesResolveInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    engine.at(2.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, InSchedulesRelativeToNow) {
  Engine engine;
  Time fired = -1.0;
  engine.at(3.0, [&] { engine.in(2.0, [&] { fired = engine.now(); }); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired, 5.0);
}

TEST(Engine, PastTimesClampToNow) {
  Engine engine;
  Time fired = -1.0;
  engine.at(4.0, [&] { engine.at(1.0, [&] { fired = engine.now(); }); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired, 4.0);
}

TEST(Engine, CancelPreventsDelivery) {
  Engine engine;
  bool fired = false;
  const auto id = engine.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel is a no-op
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  int count = 0;
  engine.at(1.0, [&] { ++count; });
  engine.at(2.0, [&] { ++count; });
  engine.at(3.0, [&] { ++count; });
  const auto processed = engine.run(2.0);
  EXPECT_EQ(processed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, StopAbortsRunLoop) {
  Engine engine;
  int count = 0;
  engine.at(1.0, [&] {
    ++count;
    engine.stop();
  });
  engine.at(2.0, [&] { ++count; });
  engine.run();
  EXPECT_EQ(count, 1);
  engine.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, NextEventTimeSkipsTombstones) {
  Engine engine;
  const auto id = engine.at(1.0, [] {});
  engine.at(5.0, [] {});
  engine.cancel(id);
  EXPECT_DOUBLE_EQ(engine.next_event_time(), 5.0);
}

TEST(Engine, RefusesNonFiniteTimes) {
  // An event at +inf would be parked forever: next_event_time() would call
  // the calendar empty while empty() and pending() counted it as live.
  Engine engine;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.at(inf, [] {}), util::Error);
  EXPECT_THROW(engine.at(-inf, [] {}), util::Error);
  EXPECT_THROW(engine.at(std::nan(""), [] {}), util::Error);
  EXPECT_THROW(engine.in(inf, [] {}), util::Error);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.next_event_time(), kInfiniteTime);
  // A finite time in the past still clamps to now.
  engine.at(-1.0, [] {});
  EXPECT_DOUBLE_EQ(engine.next_event_time(), 0.0);
}

TEST(Engine, ReservedKeysFireInIssueOrder) {
  Engine engine;
  std::vector<int> order;
  const std::uint64_t early = engine.reserve_seq();
  engine.at(1.0, [&] { order.push_back(2); });
  const std::uint64_t late = engine.reserve_seq();
  // Pushed out of issue order, at equal times: seq still decides.
  engine.at_reserved({1.0, late}, [&] { order.push_back(3); });
  engine.at_reserved({1.0, early}, [&] { order.push_back(1); });
  engine.at(0.5, [&] {
    EXPECT_EQ(engine.current_key().time, 0.5);
    // A key before the running event cannot be pushed.
    EXPECT_THROW(engine.at_reserved({0.25, engine.reserve_seq()}, [] {}),
                 util::Error);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.current_key().time, 1.0);
  EXPECT_EQ(engine.current_key().seq, late);
  // A seq that was never issued is refused.
  EXPECT_THROW(engine.at_reserved({2.0, 1000}, [] {}), util::Error);
}

TEST(Engine, RunUntilKeyIsTheWindowBoundary) {
  Engine engine;
  engine.at(1.0, [] {});
  engine.at(3.0, [] {});
  engine.run(2.0);
  // Every key issued so far at or before 2.0 precedes it; 3.0 does not.
  const Engine::EventKey boundary = engine.current_key();
  EXPECT_EQ(boundary.time, 2.0);
  EXPECT_TRUE((Engine::EventKey{2.0, 2} < boundary));
  EXPECT_FALSE((Engine::EventKey{3.0, 2} < boundary));
  // A later key at the same time, issued after the window, does not.
  EXPECT_FALSE((Engine::EventKey{2.0, engine.reserve_seq()} < boundary));
  // The clock never runs backwards.
  engine.run(1.5);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.current_key().time, 2.0);
}

TEST(Engine, NextEventTimeEmptyIsInfinite) {
  Engine engine;
  EXPECT_EQ(engine.next_event_time(), kInfiniteTime);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.in(1.0, recurse);
  };
  engine.in(1.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 100.0);
}

TEST(Engine, ProcessedCounterAccumulates) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.processed(), 7u);
}

TEST(Engine, CallbackSeesItsOwnTimeKeyAndCount) {
  // Inside a callback, now(), current_key() and processed() describe the
  // running event; outside, they keep describing the last processed one.
  Engine engine;
  struct Seen {
    Time now;
    Engine::EventKey key;
    std::uint64_t processed;
  };
  std::vector<Seen> seen;
  const auto record = [&] {
    seen.push_back({engine.now(), engine.current_key(), engine.processed()});
  };
  engine.at(2.0, record);
  engine.at(1.0, record);
  engine.at(2.0, record);
  engine.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].now, 1.0);
  EXPECT_EQ(seen[0].key.seq, 2u);
  EXPECT_EQ(seen[0].processed, 1u);
  EXPECT_EQ(seen[1].now, 2.0);
  EXPECT_EQ(seen[1].key.seq, 1u);
  EXPECT_EQ(seen[1].processed, 2u);
  EXPECT_EQ(seen[2].key.time, 2.0);
  EXPECT_EQ(seen[2].key.seq, 3u);
  EXPECT_EQ(seen[2].processed, 3u);
  EXPECT_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.current_key().seq, 3u);
}

TEST(Engine, TraceProbeFollowsTheHookWithTimeAndCount) {
  Engine engine;
  std::vector<std::string> calls;
  engine.set_post_event_hook([&] {
    calls.push_back("hook@" + std::to_string(engine.now()));
  });
  engine.set_trace_probe([&](Time now, std::uint64_t processed) {
    calls.push_back("probe@" + std::to_string(now) + "#" +
                    std::to_string(processed));
  });
  engine.at(1.5, [] {});
  engine.at(4.0, [] {});
  engine.run();
  EXPECT_EQ(calls, (std::vector<std::string>{
                       "hook@" + std::to_string(1.5),
                       "probe@" + std::to_string(1.5) + "#1",
                       "hook@" + std::to_string(4.0),
                       "probe@" + std::to_string(4.0) + "#2"}));
}

TEST(Engine, HookSchedulesAtTheEventTime) {
  // The post-event hook still runs at the event's time, so work it
  // schedules in the past clamps to that time, not to anything earlier.
  Engine engine;
  std::vector<Time> fired;
  bool armed = true;
  engine.set_post_event_hook([&] {
    if (!armed) return;
    armed = false;
    engine.at(0.0, [&] { fired.push_back(engine.now()); });
  });
  engine.at(3.0, [] {});
  engine.run();
  EXPECT_EQ(fired, (std::vector<Time>{3.0}));
}

TEST(Engine, RunClearsAnEarlierStopButStepIgnoresIt) {
  Engine engine;
  int count = 0;
  for (int i = 1; i <= 3; ++i) engine.at(i, [&] { ++count; });
  engine.stop();
  EXPECT_TRUE(engine.step());  // stepping never looks at the flag
  EXPECT_EQ(count, 1);
  engine.run();  // a stop requested before run() does not cut it short
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(engine.step());
}

TEST(Engine, PendingAndEmptyTrackScheduleCancelAndFire) {
  Engine engine;
  EXPECT_TRUE(engine.empty());
  const auto a = engine.at(1.0, [] {});
  engine.at(2.0, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.cancel(a));
  EXPECT_FALSE(engine.cancel(a));
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_FALSE(engine.empty());
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.processed(), 1u);
}

TEST(Engine, StepRunsOneEventAtATimeInKeyOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(2.0, [&] { order.push_back(2); });
  engine.at(1.0, [&] { order.push_back(0); });
  engine.at(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(engine.now(), 1.0);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.now(), 2.0);
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.processed(), 3u);
}

TEST(Engine, RunUntilThenStepCrossesTheBoundary) {
  Engine engine;
  engine.at(1.0, [] {});
  engine.at(3.0, [] {});
  EXPECT_EQ(engine.run(2.0), 1u);
  EXPECT_EQ(engine.now(), 2.0);
  // step() has no window: it takes the next event wherever it lies.
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.current_key().time, 3.0);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, CancelFromACallbackDropsAnEventAnEarlierCallbackScheduled) {
  Engine engine;
  bool fired = false;
  Engine::EventId id{};
  engine.at(1.0, [&] { id = engine.at(3.0, [&] { fired = true; }); });
  engine.at(2.0, [&] {
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_TRUE(engine.cancel(id));
    EXPECT_FALSE(engine.cancel(id));
  });
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(Engine, StopInsideACallbackLeavesSameTimeTiesPending) {
  // stop() ends the run after the running event, even with later events at
  // the very same time; the next run() resumes with them, in order.
  Engine engine;
  std::vector<int> order;
  engine.at(1.0, [&] {
    order.push_back(0);
    engine.stop();
  });
  engine.at(1.0, [&] { order.push_back(1); });
  engine.at(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, PostEventHookCanStopTheRun) {
  Engine engine;
  int events = 0;
  engine.set_post_event_hook([&] {
    if (events == 2) engine.stop();
  });
  for (int i = 1; i <= 4; ++i) engine.at(i, [&] { ++events; });
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 2u);
}

TEST(Engine, RunReturnsOnlyThisCallsCount) {
  Engine engine;
  for (int i = 1; i <= 5; ++i) engine.at(i, [] {});
  EXPECT_EQ(engine.run(2.0), 2u);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.run(), 2u);  // step()'s event is not counted again
  EXPECT_EQ(engine.processed(), 5u);
  EXPECT_EQ(engine.run(), 0u);
}

TEST(Engine, KeysStrictlyIncreaseUnderNestedScheduling) {
  // Callbacks that schedule at, before and after their own time (the past
  // clamps to now) still see keys in strictly increasing (time, seq)
  // order, and the clock never runs backwards.
  Engine engine;
  std::vector<Engine::EventKey> keys;
  std::function<void(int)> spawn = [&](int depth) {
    keys.push_back(engine.current_key());
    if (depth == 0) return;
    for (const Time offset : {-1.0, 0.0, 0.5}) {
      engine.at(engine.now() + offset, [&spawn, depth] { spawn(depth - 1); });
    }
  };
  engine.at(1.0, [&] { spawn(5); });
  engine.at(1.0, [&] { spawn(3); });
  engine.run();
  ASSERT_EQ(keys.size(), 364u + 40u);  // (3^6 - 1)/2 + (3^4 - 1)/2
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(keys[i - 1] < keys[i]) << "event " << i;
    EXPECT_LE(keys[i - 1].time, keys[i].time) << "event " << i;
  }
  EXPECT_EQ(engine.processed(), keys.size());  // one key per event
}

TEST(Engine, RejectsEmptyCallback) {
  Engine engine;
  EXPECT_THROW(engine.at(1.0, Engine::Callback{}), util::Error);
}

TEST(Engine, CancelOfAlreadyFiredEventReturnsFalse) {
  Engine engine;
  bool fired = false;
  const auto id = engine.at(1.0, [&] { fired = true; });
  engine.run();
  ASSERT_TRUE(fired);
  EXPECT_FALSE(engine.cancel(id));  // fired events are not cancellable
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine engine;
  Time fired = -1.0;
  std::uint64_t fired_seq = 0, later_seq = 0;
  engine.at(4.0, [&] {
    engine.in(-2.5, [&] {
      fired = engine.now();
      fired_seq = engine.processed();
    });
    // A same-time event scheduled after it must also fire after it.
    engine.in(0.0, [&] { later_seq = engine.processed(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired, 4.0);  // clamped, not scheduled in the past
  EXPECT_LT(fired_seq, later_seq);
}

TEST(Engine, MixedAtAndInTiesFireInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.at(1.0, [&] {
    engine.at(3.0, [&] { order.push_back(0); });
    engine.in(2.0, [&] { order.push_back(1); });
    engine.at(3.0, [&] { order.push_back(2); });
    engine.in(2.0, [&] { order.push_back(3); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, PostEventHookFiresAfterEveryProcessedEvent) {
  Engine engine;
  std::vector<Time> hook_times;
  int events = 0;
  engine.set_post_event_hook([&] { hook_times.push_back(engine.now()); });
  engine.at(1.0, [&] { ++events; });
  const auto cancelled = engine.at(2.0, [&] { ++events; });
  engine.at(3.0, [&] { ++events; });
  engine.cancel(cancelled);
  engine.run();
  EXPECT_EQ(events, 2);
  // Once per *processed* event, at that event's time; never for tombstones.
  EXPECT_EQ(hook_times, (std::vector<Time>{1.0, 3.0}));
  engine.set_post_event_hook({});  // clearing is accepted
  engine.at(4.0, [&] { ++events; });
  engine.run();
  EXPECT_EQ(events, 3);
  EXPECT_EQ(hook_times.size(), 2u);
}

// Counts live copies of a capture, so a test can see every closure
// destroyed exactly once however often the callback moved it around.
struct LiveCounter {
  int* live;
  explicit LiveCounter(int* counter) : live(counter) { ++*live; }
  LiveCounter(const LiveCounter& other) : live(other.live) { ++*live; }
  LiveCounter(LiveCounter&& other) noexcept : live(other.live) { ++*live; }
  LiveCounter& operator=(const LiveCounter&) = delete;
  ~LiveCounter() { --*live; }
};

template <std::size_t kPad>
struct CountedCapture {
  LiveCounter counter;
  int* fired;
  std::array<char, kPad> pad{};
  void operator()() { ++*fired; }
};
using InlineCapture = CountedCapture<8>;
using HeapCapture = CountedCapture<Callback::kInlineSize>;
static_assert(sizeof(InlineCapture) <= Callback::kInlineSize);
static_assert(sizeof(HeapCapture) > Callback::kInlineSize);

template <typename Capture>
void expect_fires_and_destroys_once() {
  int live = 0, fired = 0, pending_fired = 0;
  {
    Engine engine;
    engine.at(1.0, Capture{LiveCounter(&live), &fired});
    engine.at(2.0, Capture{LiveCounter(&live), &fired});
    engine.at(5.0, Capture{LiveCounter(&live), &pending_fired});
    EXPECT_EQ(live, 3);
    engine.run(3.0);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(live, 1);  // the fired closures are gone, the pending one kept
  }
  EXPECT_EQ(pending_fired, 0);  // destroyed with the engine, never run
  EXPECT_EQ(live, 0);
}

TEST(Engine, InlineCaptureFiresOnceAndIsDestroyedOnce) {
  expect_fires_and_destroys_once<InlineCapture>();
}

TEST(Engine, HeapCaptureFiresOnceAndIsDestroyedOnce) {
  expect_fires_and_destroys_once<HeapCapture>();
}

TEST(Engine, CancelDestroysTheCapture) {
  int live = 0, fired = 0;
  Engine engine;
  const auto small = engine.at(1.0, InlineCapture{LiveCounter(&live), &fired});
  const auto large = engine.at(1.0, HeapCapture{LiveCounter(&live), &fired});
  EXPECT_TRUE(engine.cancel(small));
  EXPECT_TRUE(engine.cancel(large));
  EXPECT_EQ(live, 0);
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, AcceptsMoveOnlyCaptures) {
  Engine engine;
  int seen = 0;
  auto value = std::make_unique<int>(42);
  engine.at(1.0, [&seen, value = std::move(value)] { seen = *value; });
  engine.run();
  EXPECT_EQ(seen, 42);
}

TEST(Engine, RejectsEmptyStdFunction) {
  Engine engine;
  const std::function<void()> empty;
  EXPECT_THROW(engine.at(1.0, empty), util::Error);
  EXPECT_THROW(engine.in(1.0, std::function<void()>{}), util::Error);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, StaleIdNeverCancelsTheSlotsNextOccupant) {
  Engine engine;
  const auto first = engine.at(1.0, [] {});
  engine.run();
  // The fired event's calendar slot is free, so the next event reuses it.
  bool fired = false;
  const auto second = engine.at(2.0, [&] { fired = true; });
  ASSERT_EQ(second.slot, first.slot);
  EXPECT_FALSE(engine.cancel(first));
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, StaleIdOfCancelledEventNeverCancelsTheNextOccupant) {
  Engine engine;
  const auto first = engine.at(1.0, [] {});
  ASSERT_TRUE(engine.cancel(first));
  bool fired = false;
  const auto second = engine.at(1.0, [&] { fired = true; });
  ASSERT_EQ(second.slot, first.slot);
  EXPECT_FALSE(engine.cancel(first));
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();  // the first event's tombstone must not fire the second
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.processed(), 1u);
}

TEST(Callback, MovesOwnershipAndEmptiesTheSource) {
  int live = 0, fired = 0;
  Callback a = HeapCapture{LiveCounter(&live), &fired};
  Callback b = InlineCapture{LiveCounter(&live), &fired};
  EXPECT_EQ(live, 2);
  b = std::move(a);  // destroys b's old target
  EXPECT_EQ(live, 1);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  b();
  b();  // callable more than once, like the post-event hook
  EXPECT_EQ(fired, 2);
  b = Callback{};
  EXPECT_EQ(live, 0);
}

// Differential test of the calendar order. Seeded random mixes of at(),
// in(), late pushes of reserved seqs and cancels, issued both from outside
// the run and from inside firing events, are mirrored in a reference: a
// std::map sorted by (time, seq) with the engine's clamping and seq
// issuing written out. Every event must fire exactly when it is the
// reference's minimum, with the time bits it was pushed at, and
// processed()/pending()/next_event_time() must agree after every step.
class CalendarDifferential {
 public:
  explicit CalendarDifferential(std::uint64_t seed) : rng_(seed, "calendar") {}

  void run() {
    for (int i = 0; i < 64; ++i) random_op();
    while (!engine_.empty() || budget_ > 0) {
      if (engine_.empty()) {
        random_op();
        continue;
      }
      switch (rng_.uniform_int(0, 5)) {
        case 0: {
          const Time until =
              now_ + 0.25 * static_cast<double>(rng_.uniform_int(0, 4));
          const std::uint64_t before = processed_;
          const std::uint64_t count = engine_.run(until);
          EXPECT_EQ(count, processed_ - before);
          // run(until) drained its window: the clock moves to `until` if
          // events remain beyond it, and the key becomes the boundary.
          if (!pending_.empty() && pending_.begin()->first.time > until &&
              until >= now_) {
            now_ = until;
            last_ = {until, next_seq_};
          }
          break;
        }
        case 1:
        case 2:
          for (int i = 0; i < 3; ++i) random_op();
          break;
        default:
          ASSERT_TRUE(engine_.step());
          break;
      }
      check_state();
      peak_ = std::max(peak_, pending_.size());
    }
    EXPECT_FALSE(engine_.step());
    EXPECT_EQ(bits(engine_.next_event_time()), bits(kInfiniteTime));
    EXPECT_GT(fired_, 100);
    EXPECT_GT(cancelled_, 10);
    EXPECT_GE(peak_, 8u);  // deep enough for multi-level sifts
    EXPECT_GT(stale_cancels_[0], 0);  // of a fired event
    EXPECT_GT(stale_cancels_[1], 0);  // of a tombstoned one
  }

 private:
  struct Key {
    Time time;
    std::uint64_t seq;
    friend bool operator<(const Key& a, const Key& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };
  enum class State { kPending, kFired, kCancelled };
  struct Event {
    Key key;
    Engine::EventId id;
    State state;
  };

  static std::uint64_t bits(Time t) { return std::bit_cast<std::uint64_t>(t); }

  // Times on a coarse grid, so ties are common; -0.0 and +0.0 are equal
  // keys that differ in their bits.
  Time draw_time() {
    switch (rng_.uniform_int(0, 5)) {
      case 0: return -0.0;
      case 1: return 0.0;
      case 2: return now_;
      case 3: return now_ - 1.0;  // clamps to now
      default: return now_ + 0.5 * static_cast<double>(rng_.uniform_int(0, 4));
    }
  }
  Time draw_delay() {
    static constexpr Time kDelays[] = {-0.0, 0.0, -0.5, 0.5, 1.0, 0.25};
    return kDelays[rng_.uniform_int(0, 5)];
  }

  Callback fire_of(std::size_t index) {
    return [this, index] { fire(index); };
  }

  void record(Key key, Engine::EventId id) {
    EXPECT_EQ(id.seq, key.seq);
    events_.push_back(Event{key, id, State::kPending});
    pending_.emplace(key, events_.size() - 1);
  }

  void random_op() {
    if (budget_ <= 0) return;
    --budget_;
    switch (rng_.uniform_int(0, 6)) {
      case 0:
      case 1: {  // at(): clamped to now, next seq
        const Time t = draw_time();
        const Key key{t < now_ ? now_ : t, next_seq_++};
        record(key, engine_.at(t, fire_of(events_.size())));
        break;
      }
      case 2: {  // in(): now + delay, clamped, next seq
        const Time delay = draw_delay();
        const Time t = now_ + delay;
        const Key key{t < now_ ? now_ : t, next_seq_++};
        record(key, engine_.in(delay, fire_of(events_.size())));
        break;
      }
      case 3: {  // reserve a seq now, push it later
        const std::uint64_t seq = engine_.reserve_seq();
        EXPECT_EQ(seq, next_seq_++);
        reserved_.push_back(
            Key{now_ + 0.5 * static_cast<double>(rng_.uniform_int(0, 3)), seq});
        break;
      }
      case 4: {  // push a reserved seq late, if its key is still ahead
        if (reserved_.empty()) break;
        const auto last = static_cast<std::int64_t>(reserved_.size()) - 1;
        const auto pick = static_cast<std::size_t>(rng_.uniform_int(0, last));
        const Key key = reserved_[pick];
        reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(pick));
        if (key < last_) break;  // its time passed: the owner would retire it
        record(key, engine_.at_reserved(Engine::EventKey{key.time, key.seq},
                                         fire_of(events_.size())));
        break;
      }
      default: {  // cancel any event ever pushed: pending, fired or cancelled
        if (events_.empty()) break;
        // Half the picks among the latest events, which are mostly pending.
        const auto count = static_cast<std::int64_t>(events_.size());
        const std::int64_t lo = rng_.uniform_int(0, 1) == 0
                                    ? 0
                                    : std::max<std::int64_t>(0, count - 8);
        const auto pick =
            static_cast<std::size_t>(rng_.uniform_int(lo, count - 1));
        Event& event = events_[pick];
        EXPECT_EQ(engine_.cancel(event.id), event.state == State::kPending)
            << "event " << pick;
        switch (event.state) {
          case State::kPending:
            event.state = State::kCancelled;
            pending_.erase(event.key);
            ++cancelled_;
            break;
          case State::kFired: ++stale_cancels_[0]; break;
          case State::kCancelled: ++stale_cancels_[1]; break;
        }
        break;
      }
    }
  }

  void fire(std::size_t index) {
    ASSERT_FALSE(pending_.empty());
    EXPECT_EQ(pending_.begin()->second, index) << "fired out of order";
    Event& event = events_[index];
    EXPECT_EQ(event.state, State::kPending);
    EXPECT_EQ(bits(engine_.now()), bits(event.key.time));
    EXPECT_EQ(engine_.current_key().seq, event.key.seq);
    pending_.erase(event.key);
    event.state = State::kFired;
    now_ = event.key.time;
    last_ = event.key;
    ++processed_;
    ++fired_;
    EXPECT_EQ(engine_.processed(), processed_);
    // Firing events schedule and cancel too, at keys relative to their own.
    const auto ops = rng_.uniform_int(0, 2);
    for (std::int64_t i = 0; i < ops; ++i) random_op();
  }

  void check_state() {
    EXPECT_EQ(engine_.processed(), processed_);
    EXPECT_EQ(engine_.pending(), pending_.size());
    EXPECT_EQ(engine_.empty(), pending_.empty());
    const Time next =
        pending_.empty() ? kInfiniteTime : pending_.begin()->first.time;
    EXPECT_EQ(bits(engine_.next_event_time()), bits(next));
  }

  Engine engine_;
  RngStream rng_;
  std::vector<Event> events_;
  std::map<Key, std::size_t> pending_;  // the reference calendar
  std::vector<Key> reserved_;
  std::uint64_t next_seq_ = 1;
  Time now_ = 0.0;
  Key last_{0.0, 0};
  std::uint64_t processed_ = 0;
  int budget_ = 800;
  int fired_ = 0;
  int cancelled_ = 0;
  std::size_t peak_ = 0;
  std::array<int, 2> stale_cancels_{};
};

TEST(Engine, CalendarFiresInSortedKeyOrderOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    CalendarDifferential(seed).run();
  }
}

// A capture that counts its moves and which copy of it is destroyed: the
// one copy that still owns the capture (moved-from shells do not).
struct MoveLog {
  int moves = 0;
  int moves_at_call = -1;
  int owner_destroyed = 0;
};

struct MoveCountingCapture {
  MoveLog* log;
  bool owner = true;
  explicit MoveCountingCapture(MoveLog* l) : log(l) {}
  MoveCountingCapture(MoveCountingCapture&& other) noexcept
      : log(other.log), owner(std::exchange(other.owner, false)) {
    ++log->moves;
  }
  MoveCountingCapture(const MoveCountingCapture&) = delete;
  MoveCountingCapture& operator=(const MoveCountingCapture&) = delete;
  ~MoveCountingCapture() {
    if (owner) ++log->owner_destroyed;
  }
  void operator()() { log->moves_at_call = log->moves; }
};
static_assert(sizeof(MoveCountingCapture) <= Callback::kInlineSize);

// Builds the Callback first, which moves the capture once into its buffer;
// every move the tests count past that one is a relocation.
Callback counted(MoveLog* log) {
  Callback cb = MoveCountingCapture{log};
  EXPECT_EQ(log->moves, 1);  // into the callback's buffer
  return cb;
}

TEST(Engine, ScheduledClosureMovesIntoItsSlotAndOutToItsCall) {
  MoveLog log;
  {
    Engine engine;
    engine.in(1.0, counted(&log));
    engine.run();
    // One move into the calendar slot, one out of it to run.
    EXPECT_EQ(log.moves_at_call, 1 + 2);
    EXPECT_EQ(log.owner_destroyed, 1);
  }
  EXPECT_EQ(log.owner_destroyed, 1);
}

TEST(Engine, ServerDoneMovesOncePerHandOff) {
  MoveLog idle, queued;
  {
    Engine engine;
    Server server(engine, 1);
    server.submit(1.0, counted(&idle));    // starts at once
    server.submit(1.0, counted(&queued));  // waits behind it
    engine.run();
    // Idle server: into the item's slot, out of it to run.
    EXPECT_EQ(idle.moves_at_call, 1 + 2);
    // Busy server: into the wait queue, into the slot, out to run.
    EXPECT_EQ(queued.moves_at_call, 1 + 3);
    EXPECT_EQ(idle.owner_destroyed, 1);
    EXPECT_EQ(queued.owner_destroyed, 1);
  }
  EXPECT_EQ(idle.owner_destroyed, 1);
  EXPECT_EQ(queued.owner_destroyed, 1);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace_of = [] {
    Engine engine;
    std::vector<double> times;
    for (int i = 0; i < 50; ++i) {
      engine.at(static_cast<double>((i * 37) % 11), [&times, &engine] {
        times.push_back(engine.now());
      });
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(trace_of(), trace_of());
}

}  // namespace
}  // namespace flotilla::sim
