#pragma once
// The benchmark's three workloads. Each is a DVDC job run through the
// public core::JobRunner path; shapes are fixed here, the benchmark seed
// only picks the job seeds (guest writes, failure times, traffic).
//
//   batch_fig5      the paper's Fig. 5 job: RAID-5, hot/cold guests,
//                   Poisson node failures, oracle detection.
//   serve_failover  output-commit serving under a scripted node failure
//                   and a leader kill, with a 3-replica control plane,
//                   wire-true heartbeats and ambient frame drop.
//   rebuild_rs      a wide RS(12+2) declustered cluster with near-full
//                   dirty pages and frequent rebuilds.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/runtime.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  vdc::core::ClusterConfig cluster;
  /// Template for every job of the workload; `seed` and `observer` are
  /// set per job.
  vdc::core::JobConfig job;
  vdc::core::ProtocolConfig protocol;
  vdc::core::PlannerConfig planner;
  /// Cluster MTBF of the workload's Poisson node failures (0: scripted
  /// faults only). Each job gets total_work / mtbf failures at uniformly
  /// random times between its first checkpoint and the end of its
  /// fault-free length: a Poisson process conditioned on its count, so the
  /// failure count — which would otherwise dominate seed-to-seed spread —
  /// is the same at every seed.
  vdc::SimTime mtbf = 0.0;
  /// Independent jobs per pass; their seeds derive from the run's seed.
  std::size_t jobs_per_pass = 1;
  /// How many times a timed run builds the stack without running it, in
  /// each round of setup probes (one before the first pass, one after each
  /// pass), to give setup_s a median.
  std::size_t setup_probes = 1;
};

const std::vector<std::string>& workload_names();

/// The named workload; throws std::invalid_argument on an unknown name.
Workload make_workload(std::string_view name);

/// Seed of job `index` of a pass under benchmark seed `seed`.
std::uint64_t job_seed(std::uint64_t seed, std::size_t index);

/// A JobConfig for one job of `w`: its seed, and its failure times drawn
/// from that seed.
vdc::core::JobConfig job_config(const Workload& w, std::uint64_t seed);

/// Builds the workload's DVDC backend.
std::unique_ptr<vdc::core::CheckpointBackend> make_backend(
    const Workload& w, vdc::simkit::Simulator& sim,
    vdc::cluster::ClusterManager& cluster);

}  // namespace perfbench
