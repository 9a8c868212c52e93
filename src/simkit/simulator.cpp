#include "simkit/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vdc::simkit {

namespace {
// Below this many queue entries, tombstones are too cheap to chase.
constexpr std::size_t kCompactMinEntries = 1024;
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  VDC_ASSERT_MSG(slots_.size() <= kSlotMask, "too many pending events");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.key = 0;
  // Generation 0 is never handed out, so slot 0 never mints kInvalidEvent.
  if (++slot.gen == 0) slot.gen = 1;
  slot.next_free = free_head_;
  free_head_ = index;
  --live_;
}

EventId Simulator::at(SimTime t, Callback cb) {
  VDC_ASSERT_MSG(std::isfinite(t), "event time must be finite");
  VDC_ASSERT_MSG(t >= now_ - 1e-12, "cannot schedule events in the past");
  VDC_ASSERT(cb != nullptr);
  VDC_ASSERT_MSG(next_seq_ >> (64 - kSlotBits) == 0,
                 "event sequence numbers exhausted");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.t = std::max(t, now_);
  slot.key = (next_seq_++ << kSlotBits) | index;
  ++live_;
  queue_.push(QueueEntry{slot.t, slot.key});
  if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
  return (static_cast<EventId>(slot.gen) << 32) | index;
}

bool Simulator::cancel(EventId id) {
  // The queue entry stays behind as a tombstone and is skipped on pop —
  // unless tombstones come to dominate, in which case the queue is
  // compacted down to the live events.
  if (!pending(id)) return false;
  const auto index = static_cast<std::uint32_t>(id);
  // Destroyed on return, after the slot is free: a capture's destructor
  // may itself call back into the simulator.
  const Callback dead = std::move(slots_[index].cb);
  release_slot(index);
  ++cancelled_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (queue_.size() < kCompactMinEntries) return;
  if (live_ * 2 >= queue_.size()) return;
  std::vector<QueueEntry> live;
  live.reserve(live_);
  for (const Slot& slot : slots_)
    if (slot.key != 0) live.push_back(QueueEntry{slot.t, slot.key});
  queue_ = Queue(Later{}, std::move(live));
  ++compactions_;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const QueueEntry item = queue_.top();
    queue_.pop();
    const auto index = static_cast<std::uint32_t>(item.key & kSlotMask);
    Slot& slot = slots_[index];
    // A tombstone: cancelled, and the slot possibly reused since.
    if (slot.key != item.key) continue;
    Callback cb = std::move(slot.cb);
    release_slot(index);
    VDC_ASSERT(item.t >= now_ - 1e-12);
    now_ = std::max(now_, item.t);
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) break;
  }
  publish_metrics();
}

void Simulator::run_until(SimTime t) {
  VDC_ASSERT(t >= now_);
  while (!queue_.empty()) {
    const QueueEntry& top = queue_.top();
    // Skip tombstones at the head so we don't stop early on cancelled events.
    if (slots_[top.key & kSlotMask].key != top.key) {
      queue_.pop();
      continue;
    }
    if (top.t > t) break;
    step();
  }
  now_ = t;
  publish_metrics();
}

void Simulator::publish_metrics() {
  auto& metrics = telemetry_.metrics();
  metrics.set("sim.events.cancelled", static_cast<double>(cancelled_));
  metrics.set("sim.queue.peak", static_cast<double>(queue_peak_));
  metrics.set("sim.queue.compactions", static_cast<double>(compactions_));
}

}  // namespace vdc::simkit
