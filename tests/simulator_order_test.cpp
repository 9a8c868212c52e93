// Simulator event order, held to an independent model.
//
// The simulator promises a strict total order: events fire by time, and
// events at the same instant fire in schedule order (FIFO). The model here
// is a std::set of (time, schedule sequence, logical id) that the test
// keeps itself, next to the simulator: every schedule inserts, every
// successful cancel erases, and every fired event must be the model's
// minimum. Randomized replays drive nested scheduling, zero-delay ties and
// cancels (of pending and of already-fired events) through run(),
// run_until() slices, and a dense-cancel regime that forces repeated
// tombstone compaction, so the heap, the slot table and compaction are all
// held to the same model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "simkit/simulator.hpp"

namespace vdc::simkit {
namespace {

struct Regime {
  int roots = 200;             // events scheduled before the run
  double tie_share = 0.15;     // children scheduled at zero delay
  double cancel_share = 0.30;  // fires that cancel
  int cancels_per_fire = 1;    // victims drawn by a cancelling fire
  int victim_window = 0;       // > 0: victims among the newest ids only
  bool rearm = false;          // a cancelled timer is rescheduled
  int max_spawned = 30000;     // logical ids, roots included
  SimTime slice = 0.0;         // > 0: drive with run_until(now + slice)
};

// One randomized schedule replayed into a simulator: each fired event is
// checked against the model, schedules children, and sometimes cancels
// victims drawn from the ids scheduled so far (pending or already fired).
// All decisions come from the seeded Rng.
class Replay {
 public:
  Replay(Regime regime, std::uint64_t seed)
      : regime_(regime), seed_(seed), rng_(seed) {}

  void run() {
    Rng boot(seed_ ^ 0x9e3779b9);
    for (int i = 0; i < regime_.roots; ++i) schedule(boot.uniform() * 10.0);
    if (regime_.slice <= 0.0) {
      sim_.run(100000);
    } else {
      while (sim_.pending_count() > 0 && !diverged_) {
        const SimTime until = sim_.now() + regime_.slice;
        sim_.run_until(until);
        // Everything due by `until` fired; the model agrees.
        if (!model_.empty() && std::get<0>(*model_.begin()) <= until)
          fail("run_until(" + std::to_string(until) +
               ") left an event due at " +
               std::to_string(std::get<0>(*model_.begin())));
      }
    }
    if (!model_.empty())
      fail("run ended with " + std::to_string(model_.size()) +
           " model events unfired");
    if (sim_.pending_count() != 0)
      fail("run ended with " + std::to_string(sim_.pending_count()) +
           " simulator events pending");
  }

  const Simulator& sim() const { return sim_; }
  std::uint64_t fired() const { return fired_; }
  std::uint64_t cancels() const { return cancels_; }
  bool diverged() const { return diverged_; }
  const std::string& error() const { return error_; }

 private:
  using Key = std::tuple<SimTime, std::uint64_t, int>;

  void schedule(SimTime t) {
    const int logical = static_cast<int>(keys_.size());
    const Key key{t, next_seq_++, logical};
    keys_.push_back(key);
    model_.insert(key);
    ids_.push_back(sim_.at(t, [this, logical] { fire(logical); }));
  }

  bool can_spawn() const {
    return static_cast<int>(keys_.size()) < regime_.max_spawned;
  }

  void spawn() {
    double dt = rng_.exponential(1.0);
    if (rng_.uniform() < regime_.tie_share) dt = 0.0;  // FIFO ties
    schedule(sim_.now() + dt);
  }

  void fire(int logical) {
    ++fired_;
    if (!diverged_) {
      if (model_.empty()) {
        fail("event " + std::to_string(logical) + " fired, model is empty");
      } else if (const Key& min = *model_.begin();
                 std::get<2>(min) != logical ||
                 std::get<0>(min) != sim_.now()) {
        std::ostringstream os;
        os << "fired event " << logical << " at t=" << sim_.now()
           << ", model minimum is event " << std::get<2>(min) << " at t="
           << std::get<0>(min) << " (seq " << std::get<1>(min) << ")";
        fail(os.str());
      } else {
        model_.erase(model_.begin());
      }
    }
    const int children = static_cast<int>(rng_.uniform() * 3.0);
    for (int c = 0; c < children && can_spawn(); ++c) spawn();
    if (rng_.uniform() < regime_.cancel_share) {
      for (int k = 0; k < regime_.cancels_per_fire; ++k) {
        const std::size_t window =
            regime_.victim_window > 0
                ? std::min<std::size_t>(regime_.victim_window, ids_.size())
                : ids_.size();
        const std::size_t victim =
            ids_.size() - 1 -
            static_cast<std::size_t>(rng_.uniform() * window);
        const bool cancelled = sim_.cancel(ids_[victim]);
        const bool modelled = model_.erase(keys_[victim]) == 1;
        cancels_ += cancelled;
        if (cancelled != modelled)
          fail("cancel(event " + std::to_string(victim) + ") returned " +
               (cancelled ? "true" : "false") + ", model says " +
               (modelled ? "pending" : "gone"));
        if (cancelled && regime_.rearm && can_spawn()) spawn();
      }
    }
  }

  /// Records the first divergence; later ones are its consequences.
  void fail(std::string what) {
    if (diverged_) return;
    diverged_ = true;
    error_ = "seed " + std::to_string(seed_) + ": " + std::move(what);
  }

  Regime regime_;
  std::uint64_t seed_;
  Rng rng_;
  Simulator sim_;
  std::set<Key> model_;
  std::vector<Key> keys_;     // by logical id
  std::vector<EventId> ids_;  // by logical id
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t cancels_ = 0;
  bool diverged_ = false;
  std::string error_;
};

TEST(SimulatorOrder, ReplayMatchesModel) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Replay replay(Regime{}, seed);
    replay.run();
    EXPECT_FALSE(replay.diverged()) << replay.error();
    EXPECT_EQ(replay.sim().executed(), replay.fired());
    EXPECT_GT(replay.fired(), 1000u);
    EXPECT_GT(replay.cancels(), 0u);
  }
}

TEST(SimulatorOrder, RunUntilSlicesMatchModel) {
  Regime regime;
  regime.slice = 0.25;
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Replay replay(regime, seed);
    replay.run();
    EXPECT_FALSE(replay.diverged()) << replay.error();
    EXPECT_GT(replay.fired(), 1000u);
  }
}

// Timer re-arming at scale (the heartbeat/retransmit shape): thousands of
// roots, and most fires cancel several recently scheduled events and
// reschedule each one cancelled. Tombstones come to outnumber live events
// in a queue past the compaction threshold, again and again, so every
// rebuilt heap is held to the model too.
TEST(SimulatorOrder, DenseCancelCompactionMatchesModel) {
  Regime regime;
  regime.roots = 2000;
  regime.cancel_share = 0.9;
  regime.cancels_per_fire = 3;
  regime.victim_window = 256;
  regime.rearm = true;
  for (std::uint64_t seed = 21; seed <= 25; ++seed) {
    Replay replay(regime, seed);
    replay.run();
    EXPECT_FALSE(replay.diverged()) << replay.error();
    EXPECT_GT(replay.sim().compactions(), 0u) << "seed " << seed;
    EXPECT_GT(replay.cancels(), 1000u);
  }
}

}  // namespace
}  // namespace vdc::simkit
