#pragma once
// Flow-level network model with max-min fair bandwidth sharing.
//
// The model is fluid: a flow is a number of bytes moving along a path of
// capacitated ports (NIC TX, NIC RX, a shared NAS uplink, a disk array...).
// Whenever a flow starts or finishes, every active flow's progress is
// settled at its current rate and rates are recomputed with the classic
// water-filling algorithm:
//
//   repeat:
//     for each port p: share(p) = residual_capacity(p) / unfixed_flows(p)
//     pick the port with the smallest share; freeze all its unfixed flows
//     at that rate; charge every port they traverse.
//
// The result is the max-min fair allocation: every flow is bottlenecked at
// some saturated port. This captures exactly the phenomenon the paper's
// Section V-B argues about — N checkpoint streams fanning into one NAS port
// each get capacity/N, while peer-to-peer exchange spreads the same bytes
// over many ports.
//
// Max-min fairness decomposes over connected components of the bipartite
// flow/port graph: flows that share no port (even transitively) cannot
// influence each other's rates. The solver exploits that — every flow
// start/finish/cancel and capacity change marks the ports it touches
// dirty, and resolve_rates() re-solves only the connected components those
// ports belong to, leaving every other flow's rate untouched. Each
// component is solved by a pure function of (component flows, port
// capacities), so the incremental path is bit-for-bit identical to a full
// from-scratch solve (oracle_rates(), asserted by
// tests/flow_solver_equivalence_test.cpp, which also diffs every solve
// against a verbatim copy of the original water-filling loop). Completion
// times live in an indexed binary heap with exactly one entry per active
// flow, keyed by (predicted finish time, flow id) and updated in place
// when a flow is re-solved, so a flow change costs O(component · log
// active flows), not O(active flows) — the difference between 100-node
// and 10k-node runs.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "simkit/simulator.hpp"

namespace vdc::net {

using PortId = std::uint32_t;
using FlowId = std::uint64_t;
constexpr FlowId kInvalidFlow = 0;

class FlowNetwork {
 public:
  using Callback = std::function<void()>;

  explicit FlowNetwork(simkit::Simulator& sim);
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Create a capacitated port (bytes/sec). Capacity must be positive.
  PortId add_port(Rate capacity, std::string name = {});

  /// Change a port's capacity (e.g. degrade a failing link). Re-solves
  /// the port's connected component.
  void set_capacity(PortId port, Rate capacity);

  Rate capacity(PortId port) const;
  const std::string& port_name(PortId port) const;

  /// Start a flow of `bytes` along `path` (in traversal order). `latency`
  /// is a fixed head latency before the first byte moves. `on_complete`
  /// fires when the last byte is delivered. A zero-byte flow completes
  /// after just the latency.
  FlowId start_flow(std::vector<PortId> path, Bytes bytes,
                    Callback on_complete, SimTime latency = 0.0);

  /// Abort a flow (e.g. its endpoint failed). The completion callback is
  /// dropped. Returns true if the flow was active or still in latency.
  bool cancel_flow(FlowId id);

  /// Number of flows currently transferring (excludes latency stage).
  std::size_t active_flows() const { return flows_.size(); }

  /// Flows still waiting out their head latency.
  std::size_t pending_flows() const { return pending_latency_.size(); }

  /// Invoked whenever the flow population changes (start, latency
  /// activation, completion, cancel). The Fabric uses it to keep the
  /// `net.active_flows` gauge current.
  void set_count_hook(std::function<void()> hook) {
    count_hook_ = std::move(hook);
  }

  /// Current max-min rate of a flow (0 if unknown/inactive).
  Rate flow_rate(FlowId id) const;

  simkit::Simulator& sim() { return sim_; }

  /// Total bytes ever delivered through a port (Kahan-compensated; long
  /// 10k-node runs don't drift).
  double port_bytes(PortId port) const;

  // --- solver introspection --------------------------------------------------
  /// Full from-scratch max-min solve of the current flow population,
  /// computed on the side (the equivalence oracle). Builds its own
  /// adjacency, so it cross-checks the incremental bookkeeping too.
  /// Returns (flow, rate) sorted by flow id.
  std::vector<std::pair<FlowId, Rate>> oracle_rates() const;

  /// Component solves performed / flows whose rate was recomputed —
  /// the incremental solver's work counters (for benches and tests).
  std::uint64_t solver_solves() const { return solver_solves_; }
  std::uint64_t solver_flows_solved() const { return solver_flows_solved_; }

 private:
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::uint32_t kNoLocal =
      std::numeric_limits<std::uint32_t>::max();
  struct Flow;
  struct Port {
    Rate cap;
    std::string name;
    KahanSum bytes_through;
    /// Active flows crossing this port (the solver's adjacency), one entry
    /// per occurrence in a flow's path, in no particular order.
    std::vector<Flow*> flows;
    /// `seen`: the resolve generation that absorbed this port into a
    /// component. `dirty`: already queued in dirty_ports_.
    std::uint64_t seen = 0;
    bool dirty = false;
  };
  struct Flow {
    FlowId id;
    std::vector<PortId> path;
    double remaining;  // bytes still to move
    Rate rate = 0.0;
    Callback on_complete;
    /// Component-collection mark (the resolve generation that saw it).
    std::uint64_t seen = 0;
    /// Index of this flow's entry in completions_, or kNoSlot.
    std::size_t heap_slot = kNoSlot;
  };
  /// Completion-heap entry: predicted absolute finish time under the
  /// flow's current rate. Ordered by (at, id).
  struct Completion {
    SimTime at;
    FlowId id;
    Flow* flow;
    bool operator<(const Completion& o) const {
      if (at != o.at) return at < o.at;
      return id < o.id;
    }
  };

  void settle_progress();
  /// Re-solve the connected components of the ports marked dirty.
  void resolve_rates();
  /// All flows connected to `seed` through shared ports, ascending by id.
  /// Marks flows and ports with the current resolve generation.
  void collect_component(Flow* seed, std::vector<Flow*>& component);
  /// Pure water-filling over one connected component: rates aligned with
  /// `flows` (which must be sorted by ascending id). Reads the flows'
  /// paths and port capacities only.
  std::vector<Rate> solve_component(std::span<const Flow* const> flows) const;
  /// Write solved rates back and refresh the flows' completion entries.
  void apply_rates(const std::vector<Flow*>& flows,
                   const std::vector<Rate>& rates);
  /// Attach/detach a flow to/from the ports on its path; detaching also
  /// drops its completion entry.
  void link(Flow& flow);
  void unlink(Flow& flow);
  /// Indexed completion heap, one entry per active flow: insert or re-key
  /// a flow's entry, remove it, or settle `c` into the hole at `slot`.
  void heap_set(Flow& flow, SimTime at);
  void heap_erase(Flow& flow);
  void heap_fix(std::size_t slot, Completion c);
  void mark_dirty(std::span<const PortId> ports);
  void schedule_next_completion();
  void on_timer();
  void activate(FlowId id, Flow flow);
  void notify_count();

  simkit::Simulator& sim_;
  std::vector<Port> ports_;
  // unordered_map never moves its elements, so Port::flows and
  // completions_ point straight at them; unlink() clears both before a
  // flow is erased.
  std::unordered_map<FlowId, Flow> flows_;
  // Flows waiting out their head latency (cancellable via pending_latency_).
  std::unordered_map<FlowId, simkit::EventId> pending_latency_;
  FlowId next_flow_id_ = 1;
  SimTime last_settle_ = 0.0;
  simkit::EventId timer_ = simkit::kInvalidEvent;
  std::function<void()> count_hook_;

  std::vector<PortId> dirty_ports_;
  std::uint64_t generation_ = 0;
  std::vector<Completion> completions_;  // binary min-heap
  /// solve_component scratch: each port's index within the component being
  /// solved, kNoLocal outside a solve.
  mutable std::vector<std::uint32_t> local_port_;
  std::uint64_t solver_solves_ = 0;
  std::uint64_t solver_flows_solved_ = 0;
};

}  // namespace vdc::net
