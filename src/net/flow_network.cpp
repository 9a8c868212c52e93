#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>
#include <utility>

namespace vdc::net {

namespace {
// A flow whose remaining volume drops below this is considered delivered.
// One byte of slack at double precision; avoids infinite zeno re-scheduling.
constexpr double kDoneEpsilon = 0.5;

// Anti-starvation floor for the water-filling shares. A port whose
// residual was clamped to zero by accumulated drift (or whose tiny
// capacity underflows when divided across its flows) would otherwise hand
// its remaining flows an exact-zero rate, tripping the "active flow with
// zero rate" invariant and freezing those flows forever. Flooring the
// share keeps every flow finite-time-completable; the slack this adds per
// port is at most flows * floor, negligible against any real capacity.
constexpr double kShareFloorFraction = 1e-9;
constexpr double kAbsoluteRateFloor = 1e-300;  // survives denormal caps

// `floor` is the port's max(cap * kShareFloorFraction, kAbsoluteRateFloor).
double floored_share(double residual, std::uint32_t unfixed, double floor) {
  return std::max(residual / unfixed, floor);
}
}  // namespace

FlowNetwork::FlowNetwork(simkit::Simulator& sim) : sim_(sim) {}

PortId FlowNetwork::add_port(Rate capacity, std::string name) {
  VDC_REQUIRE(capacity > 0.0, "port capacity must be positive");
  Port port;
  port.cap = capacity;
  port.name = std::move(name);
  ports_.push_back(std::move(port));
  local_port_.push_back(kNoLocal);
  return static_cast<PortId>(ports_.size() - 1);
}

void FlowNetwork::set_capacity(PortId port, Rate capacity) {
  VDC_REQUIRE(capacity > 0.0, "port capacity must be positive");
  VDC_ASSERT(port < ports_.size());
  settle_progress();
  ports_[port].cap = capacity;
  mark_dirty(std::span<const PortId>(&port, 1));
  resolve_rates();
  schedule_next_completion();
}

Rate FlowNetwork::capacity(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].cap;
}

const std::string& FlowNetwork::port_name(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].name;
}

double FlowNetwork::port_bytes(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].bytes_through.value();
}

FlowId FlowNetwork::start_flow(std::vector<PortId> path, Bytes bytes,
                               Callback on_complete, SimTime latency) {
  for (PortId p : path) VDC_ASSERT(p < ports_.size());
  VDC_ASSERT(latency >= 0.0);
  const FlowId id = next_flow_id_++;
  Flow flow{id, std::move(path), static_cast<double>(bytes), 0.0,
            std::move(on_complete)};

  if (latency > 0.0) {
    auto ev = sim_.after(latency, [this, id, flow = std::move(flow)]() mutable {
      pending_latency_.erase(id);
      activate(id, std::move(flow));
    });
    pending_latency_.emplace(id, ev);
    notify_count();
  } else {
    activate(id, std::move(flow));
  }
  return id;
}

void FlowNetwork::activate(FlowId id, Flow flow) {
  if (flow.remaining < kDoneEpsilon) {
    // Zero-length transfer: complete as its own event to keep callback
    // ordering uniform with real transfers.
    if (flow.on_complete)
      sim_.after(0.0, std::move(flow.on_complete));
    notify_count();
    return;
  }
  settle_progress();
  mark_dirty(flow.path);
  link(flows_.emplace(id, std::move(flow)).first->second);
  resolve_rates();
  schedule_next_completion();
  notify_count();
}

bool FlowNetwork::cancel_flow(FlowId id) {
  if (auto it = pending_latency_.find(id); it != pending_latency_.end()) {
    sim_.cancel(it->second);
    pending_latency_.erase(it);
    notify_count();
    return true;
  }
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  settle_progress();
  mark_dirty(it->second.path);
  unlink(it->second);
  flows_.erase(it);
  resolve_rates();
  schedule_next_completion();
  notify_count();
  return true;
}

void FlowNetwork::notify_count() {
  if (count_hook_) count_hook_();
}

Rate FlowNetwork::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

void FlowNetwork::settle_progress() {
  const SimTime now = sim_.now();
  const double dt = now - last_settle_;
  last_settle_ = now;
  if (dt <= 0.0 || flows_.empty()) return;
  for (auto& [id, flow] : flows_) {
    const double moved = std::min(flow.remaining, flow.rate * dt);
    flow.remaining -= moved;
    for (PortId p : flow.path) ports_[p].bytes_through.add(moved);
  }
}

void FlowNetwork::mark_dirty(std::span<const PortId> ports) {
  for (PortId p : ports) {
    if (ports_[p].dirty) continue;
    ports_[p].dirty = true;
    dirty_ports_.push_back(p);
  }
}

void FlowNetwork::link(Flow& flow) {
  for (PortId p : flow.path) ports_[p].flows.push_back(&flow);
}

void FlowNetwork::unlink(Flow& flow) {
  for (PortId p : flow.path) {
    auto& on_port = ports_[p].flows;
    auto it = std::find(on_port.begin(), on_port.end(), &flow);
    VDC_ASSERT(it != on_port.end());
    *it = on_port.back();
    on_port.pop_back();
  }
  heap_erase(flow);
}

void FlowNetwork::collect_component(Flow* seed,
                                    std::vector<Flow*>& component) {
  // Breadth-first, with `component` itself as the queue.
  component.assign(1, seed);
  seed->seen = generation_;
  for (std::size_t i = 0; i < component.size(); ++i) {
    for (PortId p : component[i]->path) {
      Port& port = ports_[p];
      if (port.seen == generation_) continue;
      port.seen = generation_;
      for (Flow* other : port.flows) {
        if (other->seen == generation_) continue;
        other->seen = generation_;
        component.push_back(other);
      }
    }
  }
  std::sort(component.begin(), component.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
}

std::vector<Rate> FlowNetwork::solve_component(
    std::span<const Flow* const> flows) const {
  // Water-filling max-min fair allocation over one connected component.
  // Pure: reads flow paths and port capacities only. Flows are visited in
  // ascending id order, so every float op on a port's residual happens in
  // an order fixed by the component alone — which is what lets the
  // incremental path match a full solve bitwise. A port's share is a pure
  // function of its (residual, unfixed), so it is cached and recomputed
  // only when one of those changes. The numbering of the component's
  // ports is immaterial: no float op combines two ports.
  //
  // Each flow's path as component-local port indices, resolved once:
  // flow fi crosses hops[first[fi]] .. hops[first[fi + 1] - 1].
  std::vector<PortId> cports;
  std::vector<std::uint32_t> hops;
  std::vector<std::size_t> first(flows.size() + 1);
  std::vector<std::uint32_t> unfixed;
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    first[fi] = hops.size();
    for (PortId p : flows[fi]->path) {
      std::uint32_t& i = local_port_[p];
      if (i == kNoLocal) {
        i = static_cast<std::uint32_t>(cports.size());
        cports.push_back(p);
        unfixed.push_back(0);
      }
      hops.push_back(i);
      ++unfixed[i];
    }
  }
  first[flows.size()] = hops.size();
  for (PortId p : cports) local_port_[p] = kNoLocal;

  std::vector<double> residual(cports.size());
  std::vector<double> floor(cports.size());
  std::vector<double> share(cports.size());
  for (std::size_t i = 0; i < cports.size(); ++i) {
    const double cap = ports_[cports[i]].cap;
    residual[i] = cap;
    floor[i] = std::max(cap * kShareFloorFraction, kAbsoluteRateFloor);
    share[i] = floored_share(residual[i], unfixed[i], floor[i]);
  }

  // Unfixed flows, ascending; compacted as flows freeze.
  std::vector<std::uint32_t> open(flows.size());
  for (std::size_t fi = 0; fi < flows.size(); ++fi)
    open[fi] = static_cast<std::uint32_t>(fi);
  std::vector<Rate> rates(flows.size(), 0.0);
  while (!open.empty()) {
    // Find the port giving the smallest fair share among loaded ports.
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cports.size(); ++i)
      if (unfixed[i] != 0) best_share = std::min(best_share, share[i]);
    VDC_ASSERT(std::isfinite(best_share));
    VDC_ASSERT_MSG(best_share > 0.0, "water-filling share underflowed");

    // Freeze every unfixed flow crossing a port that is saturated at
    // best_share (within numerical tolerance).
    const double saturated = best_share * (1.0 + 1e-12);
    std::size_t kept = 0;
    for (const std::uint32_t fi : open) {
      bool bottlenecked = false;
      for (std::size_t h = first[fi]; h < first[fi + 1]; ++h) {
        if (share[hops[h]] <= saturated) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) {
        open[kept++] = fi;
        continue;
      }
      rates[fi] = best_share;
      for (std::size_t h = first[fi]; h < first[fi + 1]; ++h) {
        const std::uint32_t i = hops[h];
        residual[i] -= best_share;
        if (residual[i] < 0.0) residual[i] = 0.0;
        if (--unfixed[i] != 0)
          share[i] = floored_share(residual[i], unfixed[i], floor[i]);
      }
    }
    VDC_ASSERT_MSG(kept < open.size(),
                   "water-filling failed to make progress");
    open.resize(kept);
  }
  return rates;
}

void FlowNetwork::apply_rates(const std::vector<Flow*>& flows,
                              const std::vector<Rate>& rates) {
  ++solver_solves_;
  solver_flows_solved_ += flows.size();
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Flow& f = *flows[i];
    f.rate = rates[i];
    VDC_ASSERT_MSG(f.rate > 0.0, "active flow with zero rate");
    heap_set(f, now + f.remaining / f.rate);
  }
}

void FlowNetwork::resolve_rates() {
  // Re-solve only the connected components the dirty ports belong to. A
  // port already absorbed into an earlier component (or flowless) is
  // skipped. Components are disjoint and each solve reads only its own
  // flows and ports, so the order components are solved in (and which of
  // its flows seeds one) cannot change any rate.
  ++generation_;
  std::vector<Flow*> component;
  for (PortId p : dirty_ports_) {
    Port& port = ports_[p];
    port.dirty = false;
    if (port.seen == generation_ || port.flows.empty()) continue;
    collect_component(port.flows.front(), component);
    apply_rates(component, solve_component(component));
  }
  dirty_ports_.clear();
}

std::vector<std::pair<FlowId, Rate>> FlowNetwork::oracle_rates() const {
  // Build the adjacency from the flow table alone (deliberately NOT from
  // Port::flows, so broken incremental bookkeeping can't fool the check).
  std::map<PortId, std::vector<FlowId>> on_port;
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (auto& [id, f] : flows_) {
    ids.push_back(id);
    for (PortId p : f.path) on_port[p].push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  std::unordered_set<FlowId> seen;
  std::unordered_set<PortId> ports_seen;
  std::vector<std::pair<FlowId, Rate>> out;
  out.reserve(ids.size());
  for (FlowId seed : ids) {
    if (seen.count(seed)) continue;
    // Component BFS over the side adjacency.
    std::vector<FlowId> component;
    std::vector<FlowId> stack{seed};
    seen.insert(seed);
    while (!stack.empty()) {
      const FlowId id = stack.back();
      stack.pop_back();
      component.push_back(id);
      for (PortId p : flows_.at(id).path) {
        if (!ports_seen.insert(p).second) continue;
        for (FlowId other : on_port[p])
          if (seen.insert(other).second) stack.push_back(other);
      }
    }
    std::sort(component.begin(), component.end());
    std::vector<const Flow*> members;
    members.reserve(component.size());
    for (FlowId id : component) members.push_back(&flows_.at(id));
    const auto rates = solve_component(members);
    for (std::size_t i = 0; i < component.size(); ++i)
      out.emplace_back(component[i], rates[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlowNetwork::heap_set(Flow& flow, SimTime at) {
  if (flow.heap_slot == kNoSlot) {
    completions_.emplace_back();
    heap_fix(completions_.size() - 1, Completion{at, flow.id, &flow});
  } else {
    heap_fix(flow.heap_slot, Completion{at, flow.id, &flow});
  }
}

void FlowNetwork::heap_erase(Flow& flow) {
  const std::size_t slot = flow.heap_slot;
  if (slot == kNoSlot) return;
  flow.heap_slot = kNoSlot;
  const Completion last = completions_.back();
  completions_.pop_back();
  if (slot < completions_.size()) heap_fix(slot, last);
}

void FlowNetwork::heap_fix(std::size_t slot, Completion c) {
  const auto place = [this](std::size_t at, const Completion& e) {
    completions_[at] = e;
    e.flow->heap_slot = at;
  };
  // Sift up past larger parents, else down past smaller children.
  while (slot > 0 && c < completions_[(slot - 1) / 2]) {
    place(slot, completions_[(slot - 1) / 2]);
    slot = (slot - 1) / 2;
  }
  for (;;) {
    std::size_t child = 2 * slot + 1;
    if (child >= completions_.size()) break;
    if (child + 1 < completions_.size() &&
        completions_[child + 1] < completions_[child])
      ++child;
    if (!(completions_[child] < c)) break;
    place(slot, completions_[child]);
    slot = child;
  }
  place(slot, c);
}

void FlowNetwork::schedule_next_completion() {
  if (timer_ != simkit::kInvalidEvent) {
    sim_.cancel(timer_);
    timer_ = simkit::kInvalidEvent;
  }
  VDC_ASSERT_MSG(completions_.size() == flows_.size(),
                 "active flow without a completion entry");
  if (completions_.empty()) return;
  const SimTime dt = std::max(0.0, completions_.front().at - sim_.now());
  timer_ = sim_.after(dt, [this] { on_timer(); });
}

void FlowNetwork::on_timer() {
  timer_ = simkit::kInvalidEvent;
  settle_progress();
  const SimTime now = sim_.now();

  // Collect finished flows in deterministic (FlowId) order. The second
  // clause retires flows whose residual is so small that no representable
  // time step can move it (sub-ulp leftovers from the predicted-finish
  // arithmetic).
  std::vector<FlowId> done;
  for (auto& [id, f] : flows_)
    if (f.remaining < kDoneEpsilon || now + f.remaining / f.rate <= now)
      done.push_back(id);
  std::sort(done.begin(), done.end());

  std::vector<Callback> callbacks;
  callbacks.reserve(done.size());
  for (FlowId id : done) {
    auto it = flows_.find(id);
    mark_dirty(it->second.path);
    unlink(it->second);
    if (it->second.on_complete)
      callbacks.push_back(std::move(it->second.on_complete));
    flows_.erase(it);
  }

  resolve_rates();

  // Re-arm surviving flows whose predicted finish has come due (an early
  // prediction by a float ulp): re-key their entry past the new now.
  while (!completions_.empty() && completions_.front().at <= now) {
    Flow& f = *completions_.front().flow;
    double at = now + f.remaining / f.rate;
    if (at <= now)
      at = std::nextafter(now, std::numeric_limits<double>::infinity());
    heap_set(f, at);
  }

  schedule_next_completion();
  if (!done.empty()) notify_count();

  // Run completions after the network state is consistent, so callbacks
  // may immediately start new flows.
  for (auto& cb : callbacks) cb();
}

}  // namespace vdc::net
