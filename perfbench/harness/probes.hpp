#pragma once
// Layer probes for the traced run. Each probe times one layer's public API
// on a synthetic input shaped like the run it follows: the workload's guest
// shape, the run's event-queue population, host count and peak flow count,
// series count and label arity. A probe measures the isolated cost of one
// unit of work, not its cost inside the run: caches, branch history and
// allocator state all differ, so a share built from a probe is an
// estimate.

#include <cstddef>

#include "workloads.hpp"

namespace perfbench {

/// Host ns per simulated guest-second of VirtualMachine::advance on one
/// guest of the workload's shape, advanced one checkpoint interval at a
/// time as the runtime does.
double probe_vm_ns_per_guest_s(const Workload& w, double min_seconds);

/// Host ns per Simulator::at + Simulator::step pair with `population`
/// events pending.
double probe_simkit_ns_per_event(std::size_t population, double min_seconds);

/// Host ns per flow the FlowNetwork solver re-rated, under flow churn:
/// `flows` concurrent transfers between random pairs of `hosts` hosts
/// (one connected component, so every solve re-rates about `flows` flows),
/// each completion starting the next.
double probe_net_ns_per_flow_solved(std::size_t hosts, std::size_t flows,
                                    double min_seconds);

/// Host ns per MetricsRegistry::add / observe into a registry holding
/// `series` series whose labels have `arity` keys.
double probe_telemetry_ns_per_write(std::size_t series, std::size_t arity,
                                    double min_seconds);

}  // namespace perfbench
