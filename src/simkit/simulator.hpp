#pragma once
// Deterministic discrete-event simulation core.
//
// The simulator owns a virtual clock and an event queue. Events scheduled
// for the same instant fire in schedule order (FIFO), which — together with
// the seeded Rng — makes every run bit-reproducible. All higher-level
// substrates (network flows, disks, failures, the DVDC protocol) are built
// as callbacks over this engine.
//
// Pending events wait in one binary heap ordered by (time, key), where an
// entry's key is its schedule sequence number above its slot index. Keys
// are unique, so the pop order is a strict total order: time first, then
// schedule order — FIFO at ties (tests/simulator_order_test.cpp holds it
// to an independent model).
//
// Pending callbacks live in a slot table (fixed-size pages, so growth
// never moves a callback) that reuses freed slots through a free list; no
// event touches a hash map. An EventId is `(generation << 32) | slot`:
// firing or cancelling an event bumps its slot's generation, so a stale
// id can never reach the slot's next occupant. Ids are therefore NOT
// monotonic — same-time order comes from the queue key, never from ids.
// Cancelled events leave tombstones in the queue (an entry whose slot no
// longer holds its key); when tombstones outnumber live events the queue
// is compacted in place, so cancel-heavy timer workloads (heartbeats,
// retransmits) no longer grow it unboundedly.

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "telemetry/telemetry.hpp"

namespace vdc::simkit {

using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

struct QueueEntry {
  SimTime t = 0.0;
  std::uint64_t key = 0;
};

/// Strict (time, key) order: the simulator's same-time FIFO contract.
inline bool entry_before(const QueueEntry& a, const QueueEntry& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.key < b.key;
}

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() : telemetry_(&now_) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// The simulation's telemetry context: every substrate built over this
  /// engine (network, storage, protocol, recovery) records its metrics and
  /// spans here, stamped with simulated time.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Schedule `cb` at absolute time `t` (>= now). Returns a cancellable id.
  EventId at(SimTime t, Callback cb);

  /// Schedule `cb` after `dt` seconds (dt >= 0).
  EventId after(SimTime dt, Callback cb) { return at(now_ + dt, std::move(cb)); }

  /// Cancel a pending event. Returns true if it was still pending.
  bool cancel(EventId id);

  /// True if `id` refers to a still-pending event. A stale id (its event
  /// fired or was cancelled, its slot possibly reused) is never pending.
  bool pending(EventId id) const {
    const auto index = static_cast<std::uint32_t>(id);
    return index < slots_.size() && slots_[index].key != 0 &&
           slots_[index].gen == (id >> 32);
  }

  /// Number of pending events.
  std::size_t pending_count() const { return live_; }

  /// Execute the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains or `max_events` have fired.
  void run(std::uint64_t max_events = ~0ull);

  /// Run all events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t);

  /// Total events executed so far (for determinism checks and budgets).
  std::uint64_t executed() const { return executed_; }

  /// Events cancelled so far (mirrored to `sim.events.cancelled`).
  std::uint64_t cancelled() const { return cancelled_; }

  /// High-water mark of queue entries, tombstones included (mirrored to
  /// `sim.queue.peak`).
  std::size_t queue_peak() const { return queue_peak_; }

  /// Entries currently in the queue (live + tombstones); tests use it to
  /// observe tombstone compaction.
  std::size_t queue_entries() const { return queue_.size(); }

  /// Tombstone compactions performed (`sim.queue.compactions`).
  std::uint64_t compactions() const { return compactions_; }

  /// Mirror the queue counters into the metrics registry. run() and
  /// run_until() call it at their end; a caller driving step() itself
  /// calls it once when done (not per event — scheduling stays cheap).
  void publish_metrics();

 private:
  // Queue key = (sequence << kSlotBits) | slot: 2^24 events pending at
  // once, 2^40 scheduled over a simulator's life, in a 16-byte entry.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Heap comparator: std::priority_queue keeps its "largest" on top, so
  /// "later" makes the earliest (time, key) the top.
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      return entry_before(b, a);
    }
  };
  using Queue = std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                    Later>;

  /// One pending callback. A slot is live while `key != 0`.
  struct Slot {
    Callback cb;
    SimTime t = 0.0;         // kept so compaction can rebuild live entries
    std::uint64_t key = 0;   // the occupant's queue key; 0 when free
    std::uint32_t gen = 1;   // bumped on free: stales the occupant's id
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  /// Rebuild the queue from live events once tombstones dominate.
  void maybe_compact();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_peak_ = 0;
  std::size_t live_ = 0;
  Queue queue_;
  std::deque<Slot> slots_;  // paged: references survive growth
  std::uint32_t free_head_ = kNoSlot;
  telemetry::Telemetry telemetry_;
};

}  // namespace vdc::simkit
