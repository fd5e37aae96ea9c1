// Unit and property tests for the fleet simulator's event queue: time
// order, (tie, schedule-order) tie-breaks independent of insertion history,
// size/peak accounting, and a randomized differential against an ordered
// set of (time, tie, seq) keys.
#include "fleet/event_queue.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aer::fleet {
namespace {

FleetEvent Ev(MachineId m) {
  FleetEvent e;
  e.machine = m;
  return e;
}

struct Popped {
  SimTime time;
  std::uint64_t tie;
  MachineId machine;
};

std::vector<Popped> DrainAll(EventQueue& queue) {
  std::vector<Popped> out;
  ScheduledEvent e;
  while (queue.PopNext(&e)) {
    out.push_back({e.time, e.tie, e.event.machine});
  }
  return out;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  const std::vector<SimTime> times = {500, 3, 70, 1, 4096, 64, 63, 65, 2};
  for (std::size_t i = 0; i < times.size(); ++i) {
    queue.Schedule(times[i], /*tie=*/0, Ev(static_cast<MachineId>(i)));
  }
  EXPECT_EQ(queue.size(), times.size());
  const std::vector<Popped> popped = DrainAll(queue);
  ASSERT_EQ(popped.size(), times.size());
  std::vector<SimTime> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].time, sorted[i]);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SameTimestampPopsByTie) {
  EventQueue queue;
  queue.Schedule(100, 5, Ev(5));
  queue.Schedule(100, 1, Ev(1));
  queue.Schedule(100, 3, Ev(3));
  queue.Schedule(50, 9, Ev(9));
  const std::vector<Popped> popped = DrainAll(queue);
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_EQ(popped[0].machine, 9);
  EXPECT_EQ(popped[1].machine, 1);
  EXPECT_EQ(popped[2].machine, 3);
  EXPECT_EQ(popped[3].machine, 5);
}

// The pop sequence is a pure function of the scheduled set: scheduling the
// same (time, tie) set in any insertion order yields the same sequence.
TEST(EventQueueTest, TieBreakIndependentOfInsertionOrder) {
  std::vector<std::pair<SimTime, std::uint64_t>> events;
  for (SimTime t : {10, 4000, 10, 200, 10, 200, 70000, 4000}) {
    events.push_back({t, static_cast<std::uint64_t>(events.size() * 7 % 5)});
  }
  std::vector<std::vector<Popped>> orders;
  for (int perm = 0; perm < 2; ++perm) {
    EventQueue queue;
    std::vector<std::pair<SimTime, std::uint64_t>> shuffled = events;
    if (perm == 1) std::reverse(shuffled.begin(), shuffled.end());
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      queue.Schedule(shuffled[i].first, shuffled[i].second,
                     Ev(static_cast<MachineId>(shuffled[i].second)));
    }
    orders.push_back(DrainAll(queue));
  }
  ASSERT_EQ(orders[0].size(), orders[1].size());
  for (std::size_t i = 0; i < orders[0].size(); ++i) {
    EXPECT_EQ(orders[0][i].time, orders[1][i].time) << i;
    EXPECT_EQ(orders[0][i].tie, orders[1][i].tie) << i;
  }
}

// Equal (time, tie) falls back to schedule order.
TEST(EventQueueTest, EqualTiesPopInScheduleOrder) {
  EventQueue queue;
  queue.Schedule(9, 7, Ev(0));
  queue.Schedule(9, 7, Ev(1));
  queue.Schedule(9, 7, Ev(2));
  const std::vector<Popped> popped = DrainAll(queue);
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0].machine, 0);
  EXPECT_EQ(popped[1].machine, 1);
  EXPECT_EQ(popped[2].machine, 2);
}

TEST(EventQueueTest, ScheduleAtCurrentTimePopsNext) {
  EventQueue queue;
  queue.Schedule(10, 1, Ev(0));
  queue.Schedule(10, 3, Ev(2));
  ScheduledEvent e;
  ASSERT_TRUE(queue.PopNext(&e));
  EXPECT_EQ(e.event.machine, 0);
  EXPECT_EQ(e.time, 10);
  // A schedule at the time just popped, with an intermediate tie, pops
  // before the pending tie-3 event.
  queue.Schedule(10, 2, Ev(1));
  ASSERT_TRUE(queue.PopNext(&e));
  EXPECT_EQ(e.event.machine, 1);
  ASSERT_TRUE(queue.PopNext(&e));
  EXPECT_EQ(e.event.machine, 2);
  EXPECT_FALSE(queue.PopNext(&e));
}

TEST(EventQueueTest, SizeAndPeakAccounting) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  for (int i = 0; i < 10; ++i) queue.Schedule(10 + i, 0, Ev(i));
  EXPECT_EQ(queue.size(), 10u);
  EXPECT_EQ(queue.peak_size(), 10u);
  ScheduledEvent e;
  ASSERT_TRUE(queue.PopNext(&e));
  ASSERT_TRUE(queue.PopNext(&e));
  EXPECT_EQ(queue.size(), 8u);
  EXPECT_EQ(queue.peak_size(), 10u);  // high-water mark sticks
}

// Randomized 10^5-event differential against an ordered set of
// (time, tie, seq) keys, with interleaved schedule/pop, a mix of near and
// far horizons and heavily colliding ties.
TEST(EventQueueTest, RandomizedSortDifferential) {
  using Key = std::tuple<SimTime, std::uint64_t, std::uint64_t>;
  std::set<Key> reference;

  EventQueue queue;
  Rng rng(20260808);
  SimTime now = 0;
  std::uint64_t scheduled = 0;
  std::size_t popped = 0;

  const std::uint64_t kEvents = 100000;
  while (scheduled < kEvents || !queue.empty()) {
    if (scheduled < kEvents && (rng.NextBounded(10) < 6 || queue.empty())) {
      SimTime dt = 0;
      switch (rng.NextBounded(4)) {
        case 0: dt = static_cast<SimTime>(rng.NextBounded(4)); break;
        case 1: dt = static_cast<SimTime>(rng.NextBounded(64)); break;
        case 2: dt = static_cast<SimTime>(rng.NextBounded(64 * 64)); break;
        default:
          dt = static_cast<SimTime>(rng.NextBounded(64 * 64 * 64 * 8));
          break;
      }
      const std::uint64_t tie = rng.NextBounded(3);
      queue.Schedule(now + dt, tie, Ev(0));
      reference.insert({now + dt, tie, scheduled});
      ++scheduled;
    } else {
      ScheduledEvent e;
      ASSERT_TRUE(queue.PopNext(&e)) << "after " << popped << " pops";
      ASSERT_FALSE(reference.empty());
      const Key expect = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_EQ(e.time, std::get<0>(expect)) << "pop " << popped;
      ASSERT_EQ(e.tie, std::get<1>(expect)) << "pop " << popped;
      ASSERT_EQ(e.seq, std::get<2>(expect)) << "pop " << popped;
      now = e.time;
      ++popped;
    }
  }
  EXPECT_EQ(popped, kEvents);
  EXPECT_TRUE(reference.empty());
}

}  // namespace
}  // namespace aer::fleet
