// Queue equivalence: the calendar queue must pop the exact (time, key)
// sequence the binary heap pops — the bit-reproducibility contract that
// lets SimulatorConfig::queue be a pure performance knob.
//
// Two layers: (1) raw EventQueue fuzz over adversarial time patterns
// (bursts of equal times, heavy-tailed gaps, far-future outliers,
// wholesale assign()); (2) whole-Simulator replay of identical randomized
// schedules — nested scheduling, same-time FIFO ties, cancels — asserting
// identical execution traces and clocks.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "simkit/event_queue.hpp"
#include "simkit/simulator.hpp"

namespace vdc::simkit {
namespace {

TEST(EventQueueEquivalence, RandomizedOpsPopIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    BinaryHeapQueue heap;
    CalendarQueue calendar;
    double now = 0.0;
    EventId next_id = 1;
    for (int op = 0; op < 20000; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.55 || heap.empty()) {
        // Push with a heavy-tailed gap; 10% same-time bursts, 2% far
        // future (the watchdog-timer pattern).
        double t = now;
        const double kind = rng.uniform();
        if (kind < 0.10) {
          // exact tie with a previous push
        } else if (kind < 0.12) {
          t = now + 1e5 * (1.0 + rng.uniform());
        } else {
          t = now + rng.exponential(1.0);
        }
        const QueueEntry e{t, next_id++};
        heap.push(e);
        calendar.push(e);
      } else if (roll < 0.95) {
        const QueueEntry* a = heap.peek();
        const QueueEntry* b = calendar.peek();
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        ASSERT_EQ(a->key, b->key) << "seed " << seed << " op " << op;
        ASSERT_EQ(a->t, b->t);
        now = a->t;
        heap.pop();
        calendar.pop();
      } else {
        // Wholesale reassign (tombstone compaction path): drain one
        // queue's contents and hand the same multiset to both.
        std::vector<QueueEntry> entries;
        while (const QueueEntry* top = heap.peek()) {
          entries.push_back(*top);
          heap.pop();
        }
        heap.assign(entries);
        calendar.assign(std::move(entries));
      }
      ASSERT_EQ(heap.size(), calendar.size());
    }
    // Drain: full pop order must match.
    while (!heap.empty()) {
      const QueueEntry* a = heap.peek();
      const QueueEntry* b = calendar.peek();
      ASSERT_EQ(a->key, b->key);
      ASSERT_EQ(a->t, b->t);
      heap.pop();
      calendar.pop();
    }
    EXPECT_TRUE(calendar.empty());
  }
}

// One randomized schedule, replayed verbatim into a simulator: each fired
// event appends (logical id, time) to the trace, schedules children, and
// sometimes cancels a pending sibling. All decisions come from the seeded
// Rng, so both replays make identical choices.
struct Replay {
  explicit Replay(QueueKind kind, std::uint64_t seed) : rng(seed) {
    SimulatorConfig config;
    config.queue = kind;
    sim = std::make_unique<Simulator>(config);
  }

  void fire(int logical) {
    trace.emplace_back(logical, sim->now());
    const int children = static_cast<int>(rng.uniform() * 3.0);
    for (int c = 0; c < children && spawned < 30000; ++c) {
      const int child = spawned++;
      double dt = rng.exponential(1.0);
      if (rng.uniform() < 0.15) dt = 0.0;  // same-instant FIFO ties
      pending.push_back(sim->after(dt, [this, child] { fire(child); }));
    }
    if (!pending.empty() && rng.uniform() < 0.3) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.uniform() * pending.size());
      sim->cancel(pending[victim]);
      pending.erase(pending.begin() + victim);
    }
  }

  void run(std::uint64_t seed) {
    Rng boot(seed ^ 0x9e3779b9);
    for (int i = 0; i < 200; ++i) {
      const int root = spawned++;
      sim->at(boot.uniform() * 10.0, [this, root] { fire(root); });
    }
    sim->run(100000);
  }

  Rng rng;
  std::unique_ptr<Simulator> sim;
  std::vector<EventId> pending;
  int spawned = 0;
  std::vector<std::pair<int, double>> trace;
};

TEST(EventQueueEquivalence, SimulatorReplaysIdentically) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Replay heap(QueueKind::BinaryHeap, seed);
    Replay calendar(QueueKind::Calendar, seed);
    heap.run(seed);
    calendar.run(seed);
    ASSERT_EQ(heap.trace.size(), calendar.trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.trace.size(); ++i) {
      ASSERT_EQ(heap.trace[i].first, calendar.trace[i].first)
          << "seed " << seed << " step " << i;
      ASSERT_EQ(heap.trace[i].second, calendar.trace[i].second);
    }
    EXPECT_EQ(heap.sim->now(), calendar.sim->now());
    EXPECT_EQ(heap.sim->executed(), calendar.sim->executed());
  }
}

}  // namespace
}  // namespace vdc::simkit
