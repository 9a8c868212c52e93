#pragma once
// Pending-event queues for the simulator.
//
// The simulator orders events by (time, key). A key is unique per queue
// and increases in schedule order (the simulator packs its schedule
// sequence number above the slot that holds the callback), so key order
// breaks same-time ties FIFO — the contract every substrate depends on.
// The queues never look inside a key. Two
// interchangeable implementations live behind the EventQueue interface:
//
//  * BinaryHeapQueue — std::priority_queue over (time, key). O(log n) per
//    operation; the reference implementation.
//  * CalendarQueue — Brown's calendar queue (a bucketed timing wheel with
//    an overflow "year"). O(1) amortized push/pop when the event
//    population is roughly stationary, which is exactly the regime of a
//    big cluster simulation (heartbeats, retransmit timers, flow
//    completions at 10k nodes). Buckets are scanned for the (time, key)
//    minimum, so the pop order is bit-identical to the heap's — asserted
//    by tests/event_queue_equivalence_test.cpp.
//
// Select with SimulatorConfig::queue or the VDC_EVENT_QUEUE env var
// ("heap" | "calendar").

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/units.hpp"

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

class EventQueue {
 public:
  virtual ~EventQueue() = default;

  virtual void push(QueueEntry e) = 0;

  /// The entry with the smallest (time, key); nullptr when empty. The
  /// pointer is valid until the next mutation.
  virtual const QueueEntry* peek() = 0;

  /// Remove the current minimum (the entry peek() returns). Must not be
  /// called on an empty queue.
  virtual void pop() = 0;

  /// Entries currently stored, including any tombstones the owner left
  /// behind for cancelled events.
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Replace the contents wholesale (tombstone compaction). `entries`
  /// arrives in arbitrary order.
  virtual void assign(std::vector<QueueEntry> entries) = 0;

  virtual const char* name() const = 0;
};

class BinaryHeapQueue final : public EventQueue {
 public:
  void push(QueueEntry e) override { heap_.push(e); }
  const QueueEntry* peek() override {
    return heap_.empty() ? nullptr : &heap_.top();
  }
  void pop() override { heap_.pop(); }
  std::size_t size() const override { return heap_.size(); }
  void assign(std::vector<QueueEntry> entries) override {
    heap_ = Heap(Greater{}, std::move(entries));
  }
  const char* name() const override { return "heap"; }

 private:
  struct Greater {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      return entry_before(b, a);
    }
  };
  using Heap = std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                                   Greater>;
  Heap heap_;
};

class CalendarQueue final : public EventQueue {
 public:
  CalendarQueue() { reset(kMinBuckets, 1.0, 0.0); }

  void push(QueueEntry e) override;
  const QueueEntry* peek() override;
  void pop() override;
  std::size_t size() const override { return size_; }
  void assign(std::vector<QueueEntry> entries) override;
  const char* name() const override { return "calendar"; }

  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  void reset(std::size_t nbuckets, double width, SimTime cursor);
  /// Rebuild with a bucket count / width fitted to the current contents.
  void rebuild(std::size_t nbuckets);
  /// Absolute window index of `t`. One multiply by the precomputed 1/width
  /// — no division on the pop path. Monotone in t (IEEE multiply by a
  /// positive constant), and push and scan both classify through it, so
  /// window membership stays consistent however an entry is probed.
  std::uint64_t slot_of(SimTime t) const {
    const double s = t * inv_width_;
    if (s <= 0.0) return 0;
    if (!(s < 9.0e18)) return ~0ull;  // far-future clamp (and inf guard)
    return static_cast<std::uint64_t>(s);
  }
  std::size_t bucket_of(SimTime t) const;
  /// Locate the (time, key) minimum and cache its position.
  void find_min();

  std::vector<std::vector<QueueEntry>> buckets_;
  double width_ = 1.0;       // seconds per bucket
  double inv_width_ = 1.0;   // 1/width_: slot classification is a multiply
  std::size_t mask_ = 0;     // bucket_count - 1 (count is a power of two)
  double span_ = 0.0;        // width_ * bucket_count: one wheel revolution
  std::size_t size_ = 0;
  /// Lower bound on every stored entry's time (the last popped minimum;
  /// lowered if an earlier event is pushed). Scans start here.
  SimTime cursor_ = 0.0;
  // Cached minimum (invalidated by push/pop/rebuild).
  bool cached_ = false;
  std::size_t cached_bucket_ = 0;
  std::size_t cached_pos_ = 0;
  QueueEntry cached_entry_{};
  // Runner-up within the minimum's window, recorded by the same scan.
  // Windows tile time in order, so while the popped window is non-empty
  // its runner-up IS the global next minimum — pop promotes it and skips
  // the rescan. A push that undercuts it just invalidates it.
  bool second_ = false;
  std::size_t second_pos_ = 0;
  QueueEntry second_entry_{};
};

enum class QueueKind { BinaryHeap, Calendar };

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

/// Queue kind from the VDC_EVENT_QUEUE env var ("heap" | "calendar");
/// BinaryHeap when unset or unrecognized.
QueueKind default_queue_kind();

}  // namespace vdc::simkit
