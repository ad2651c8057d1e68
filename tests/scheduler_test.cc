// Tests for the discrete-event scheduler and simulator driver.

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_scheduler.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace diffusion {
namespace {

// Test-local reference scheduler: a binary heap over (time, sequence) plus the
// set of pending ids; cancelled entries are skipped when they surface. The
// engine's pairing heap must run every workload in exactly its order.
class ReferenceScheduler {
 public:
  EventId ScheduleAt(SimTime when, std::function<void()> callback) {
    const EventId id = next_id_++;  // ids rise with insertion: the sequence
    heap_.push_back(Entry{std::max(when, now_), id, std::move(callback)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    pending_.insert(id);
    return id;
  }

  bool Cancel(EventId id) { return pending_.erase(id) > 0; }

  size_t RunUntil(SimTime end) {
    size_t run = 0;
    while (RunOne(end)) {
      ++run;
    }
    now_ = std::max(now_, end);
    return run;
  }

  size_t RunAll() {
    size_t run = 0;
    while (RunOne(std::numeric_limits<SimTime>::max())) {
      ++run;
    }
    return run;
  }

  bool Empty() const { return pending_.empty(); }
  SimTime now() const { return now_; }

 private:
  struct Entry {
    SimTime when;
    EventId sequence;
    std::function<void()> callback;
  };
  static bool Later(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.sequence > b.sequence;
  }

  bool RunOne(SimTime end) {
    while (!heap_.empty() && !pending_.contains(heap_.front().sequence)) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
    if (heap_.empty() || heap_.front().when > end) {
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(entry.sequence);
    now_ = entry.when;
    entry.callback();
    return true;
  }

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::vector<Entry> heap_;
  std::set<EventId> pending_;
};

TEST(SchedulerTest, RunsInTimeOrder) {
  EventScheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(30, [&] { order.push_back(3); });
  scheduler.ScheduleAt(10, [&] { order.push_back(1); });
  scheduler.ScheduleAt(20, [&] { order.push_back(2); });
  scheduler.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), 30);
}

TEST(SchedulerTest, TiesBreakByInsertionOrder) {
  EventScheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  scheduler.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, CancelPreventsExecution) {
  EventScheduler scheduler;
  bool ran = false;
  const EventId id = scheduler.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(scheduler.Cancel(id));
  scheduler.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeAfterRun) {
  EventScheduler scheduler;
  const EventId id = scheduler.ScheduleAt(10, [] {});
  scheduler.RunAll();
  EXPECT_FALSE(scheduler.Cancel(id));
  EXPECT_FALSE(scheduler.Cancel(id));
  EXPECT_FALSE(scheduler.Cancel(kInvalidEventId));
  EXPECT_TRUE(scheduler.Empty());
}

TEST(SchedulerTest, PendingCountTracksCancellation) {
  EventScheduler scheduler;
  const EventId a = scheduler.ScheduleAt(10, [] {});
  scheduler.ScheduleAt(20, [] {});
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.Cancel(a);
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.RunAll();
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  EventScheduler scheduler;
  std::vector<SimTime> times;
  scheduler.ScheduleAt(1, [&] {
    times.push_back(scheduler.now());
    scheduler.ScheduleAfter(5, [&] { times.push_back(scheduler.now()); });
  });
  scheduler.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{1, 6}));
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  EventScheduler scheduler;
  std::vector<SimTime> times;
  scheduler.ScheduleAt(10, [&] { times.push_back(10); });
  scheduler.ScheduleAt(20, [&] { times.push_back(20); });
  scheduler.ScheduleAt(21, [&] { times.push_back(21); });
  const size_t run = scheduler.RunUntil(20);
  EXPECT_EQ(run, 2u);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(scheduler.now(), 20);
  scheduler.RunAll();
  EXPECT_EQ(times.back(), 21);
}

TEST(SchedulerTest, RunUntilAdvancesClockWhenQueueDrains) {
  EventScheduler scheduler;
  scheduler.ScheduleAt(5, [] {});
  scheduler.RunUntil(100);
  EXPECT_EQ(scheduler.now(), 100);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  EventScheduler scheduler;
  scheduler.ScheduleAt(50, [] {});
  scheduler.RunAll();
  SimTime when = -1;
  scheduler.ScheduleAt(10, [&] { when = scheduler.now(); });
  scheduler.RunAll();
  EXPECT_EQ(when, 50);  // clamped, not time-travel
}

TEST(SchedulerTest, CancelFromInsideCallback) {
  EventScheduler scheduler;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  second = scheduler.ScheduleAt(20, [&] { second_ran = true; });
  scheduler.ScheduleAt(10, [&] { scheduler.Cancel(second); });
  scheduler.RunAll();
  EXPECT_FALSE(second_ran);
}

TEST(SchedulerTest, CancelledTimersDoNotAccumulate) {
  // Regression: Cancel used to only drop the id from the live set, leaving
  // the heap entry (and its captured closure) resident until its deadline was
  // reached. A workload that endlessly schedules far-future timers and
  // cancels them (interest refresh, reassembly timeouts) grew the queue
  // without bound.
  EventScheduler scheduler;
  auto token = std::make_shared<int>(0);
  for (int round = 0; round < 10'000; ++round) {
    const EventId id = scheduler.ScheduleAt(1'000'000 + round, [token] {});
    EXPECT_TRUE(scheduler.Cancel(id));
  }
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_TRUE(scheduler.Empty());
  // No dead closure still holds a copy of the token.
  EXPECT_EQ(token.use_count(), 1);

  // Interleaved live and cancelled events: live ones still run, in order.
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 1'000; ++i) {
    scheduler.ScheduleAt(100 + i, [&order, i] { order.push_back(i); });
    doomed.push_back(scheduler.ScheduleAt(500'000 + i, [&order] { order.push_back(-1); }));
  }
  for (EventId id : doomed) {
    EXPECT_TRUE(scheduler.Cancel(id));
  }
  EXPECT_EQ(scheduler.pending(), 1'000u);
  EXPECT_EQ(scheduler.RunAll(), 1'000u);
  ASSERT_EQ(order.size(), 1'000u);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

// ---- pairing heap vs the test-local reference heap ----
//
// The engine must run every workload in the identical (time,
// insertion-sequence) order as ReferenceScheduler. These tests drive both
// side by side.

TEST(SchedulerImplTest, TieOrderIsIdenticalAcrossImpls) {
  EventScheduler pairing;
  ReferenceScheduler reference;
  std::vector<int> pairing_order;
  std::vector<int> reference_order;
  // Many events at few distinct times: tie-breaking does all the work.
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const SimTime when = rng.NextInt(0, 5);
    pairing.ScheduleAt(when, [&pairing_order, i] { pairing_order.push_back(i); });
    reference.ScheduleAt(when, [&reference_order, i] { reference_order.push_back(i); });
  }
  pairing.RunAll();
  reference.RunAll();
  EXPECT_EQ(pairing_order, reference_order);
}

TEST(SchedulerImplTest, PairingHeapCancelUnlinksEagerly) {
  // O(1) Cancel means the node (and its closure's captured state) leaves
  // the queue immediately — no dead closures waiting for their deadline.
  EventScheduler scheduler;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId id = scheduler.ScheduleAt(1'000'000, [token = std::move(token)] {});
  EXPECT_TRUE(scheduler.Cancel(id));
  EXPECT_TRUE(watch.expired());  // capture released at Cancel, not at deadline
  EXPECT_EQ(scheduler.pending(), 0u);

  for (int round = 0; round < 10'000; ++round) {
    EXPECT_TRUE(scheduler.Cancel(scheduler.ScheduleAt(1'000'000 + round, [] {})));
  }
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_TRUE(scheduler.Empty());
}

TEST(SchedulerImplTest, CancelUnderChurnKeepsLiveEventsInOrder) {
  // Interleave schedules and cancels deep inside the heap structure, then
  // verify the survivors still run in exact (time, insertion) order.
  EventScheduler scheduler;
  Rng rng(23);
  std::vector<std::pair<EventId, int>> cancellable;
  std::vector<std::pair<SimTime, int>> expected;
  std::vector<int> ran;
  for (int i = 0; i < 2'000; ++i) {
    const SimTime when = rng.NextInt(0, 300);
    const EventId id = scheduler.ScheduleAt(when, [&ran, i] { ran.push_back(i); });
    if (rng.NextBool(0.5)) {
      cancellable.emplace_back(id, i);
      expected.emplace_back(when, i);
    } else {
      expected.emplace_back(when, i);
    }
  }
  // Cancel every other cancellable event, in a shuffled-ish order (walk
  // from both ends) to stress unlinking roots, leaves, and middles.
  std::vector<int> cancelled_labels;
  for (size_t k = 0; k < cancellable.size(); k += 2) {
    const auto& [id, label] = cancellable[cancellable.size() - 1 - k];
    EXPECT_TRUE(scheduler.Cancel(id));
    cancelled_labels.push_back(label);
  }
  for (int label : cancelled_labels) {
    std::erase_if(expected, [&](const auto& entry) { return entry.second == label; });
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  scheduler.RunAll();
  ASSERT_EQ(ran.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ran[i], expected[i].second);
  }
}

TEST(SchedulerImplTest, RandomizedWorkloadsAreEquivalent) {
  // Differential test: mirror a random schedule/cancel/run workload on the
  // engine and the reference and require identical execution sequences and
  // clocks.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EventScheduler pairing;
    ReferenceScheduler reference;
    std::vector<int> pairing_log;
    std::vector<int> reference_log;
    std::vector<EventId> pairing_ids;
    std::vector<EventId> reference_ids;
    Rng rng(seed);
    int label = 0;
    for (int op = 0; op < 3'000; ++op) {
      const int64_t kind = rng.NextInt(0, 9);
      if (kind < 6) {  // schedule (ids differ between impls; track both)
        const SimTime when = rng.NextInt(0, 2'000);
        const int this_label = label++;
        pairing_ids.push_back(pairing.ScheduleAt(
            when, [&pairing_log, this_label] { pairing_log.push_back(this_label); }));
        reference_ids.push_back(reference.ScheduleAt(
            when, [&reference_log, this_label] { reference_log.push_back(this_label); }));
      } else if (kind < 8 && !pairing_ids.empty()) {  // cancel the same event in both
        const size_t index = static_cast<size_t>(
            rng.NextInt(0, static_cast<int64_t>(pairing_ids.size()) - 1));
        EXPECT_EQ(pairing.Cancel(pairing_ids[index]), reference.Cancel(reference_ids[index]));
      } else {  // advance both clocks together
        const SimTime until = rng.NextInt(0, 2'000);
        EXPECT_EQ(pairing.RunUntil(until), reference.RunUntil(until));
        EXPECT_EQ(pairing.now(), reference.now());
      }
    }
    EXPECT_EQ(pairing.RunAll(), reference.RunAll());
    EXPECT_EQ(pairing_log, reference_log);
    EXPECT_EQ(pairing.now(), reference.now());
    EXPECT_TRUE(pairing.Empty());
    EXPECT_TRUE(reference.Empty());
  }
}

TEST(SchedulerImplTest, EventIdsAreNotRecycledAcrossGenerations) {
  // Slot+generation ids: a slot reused by a later event must not honor a
  // stale handle to the earlier one.
  EventScheduler scheduler;
  const EventId first = scheduler.ScheduleAt(10, [] {});
  EXPECT_TRUE(scheduler.Cancel(first));
  bool second_ran = false;
  const EventId second = scheduler.ScheduleAt(20, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(scheduler.Cancel(first));  // stale handle: same slot, old generation
  scheduler.RunAll();
  EXPECT_TRUE(second_ran);
}

TEST(SimulatorTest, SeedsAreReproducible) {
  Simulator a(99);
  Simulator b(99);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.rng().Next(), b.rng().Next());
  }
}

TEST(SimulatorTest, AfterSchedulesRelativeToNow) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.After(10, [&] {
    times.push_back(sim.now());
    sim.After(10, [&] { times.push_back(sim.now()); });
  });
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  EventScheduler scheduler;
  Rng rng(5);
  SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 5000; ++i) {
    const SimTime when = rng.NextInt(0, 10000);
    scheduler.ScheduleAt(when, [&, when] {
      if (when < last) {
        monotonic = false;
      }
      last = when;
    });
  }
  scheduler.RunAll();
  EXPECT_TRUE(monotonic);
}

}  // namespace
}  // namespace diffusion
