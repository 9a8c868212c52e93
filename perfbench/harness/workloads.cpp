#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "failure/injector.hpp"

namespace perfbench {

using namespace vdc;

namespace {

Workload batch_fig5() {
  Workload w;
  w.name = "batch_fig5";
  w.cluster.nodes = 8;
  w.cluster.vms_per_node = 4;
  w.cluster.page_size = kib(4);
  w.cluster.pages_per_vm = 128;
  w.cluster.write_rate = 500.0;
  w.cluster.hot_fraction = 0.1;
  w.cluster.hot_probability = 0.9;
  w.job.total_work = hours(1);
  w.job.interval = 300.0;
  w.mtbf = minutes(30);
  w.protocol.scheme = core::ParityScheme::Raid5;
  w.jobs_per_pass = 2;
  w.setup_probes = 15;
  return w;
}

Workload serve_failover() {
  Workload w;
  w.name = "serve_failover";
  w.cluster.nodes = 8;
  w.cluster.vms_per_node = 2;
  w.cluster.page_size = kib(1);
  w.cluster.pages_per_vm = 16;
  w.cluster.write_rate = 150.0;
  w.job.total_work = 300.0;
  w.job.interval = 1.0;
  w.job.failure_schedule =
      failure::ScheduledFailureInjector::parse("fail 120 5\nkill-leader at 200\n");
  w.job.heartbeat = cluster::HeartbeatConfig{};
  net::LinkFault drop;
  drop.drop = 0.001;
  w.job.ambient_link_fault = drop;
  w.job.control = controlplane::ControlPlaneConfig{};  // 3 replicas
  workload::TrafficConfig tc;
  tc.mode = workload::TrafficConfig::Mode::kOpen;
  tc.clients_per_guest = 1000;
  tc.request_rate = 0.1;  // 100 req/s per guest
  tc.streams_per_guest = 4;
  tc.response_bytes = kib(2);
  tc.client_timeout = 2.0;
  tc.warmup = 2.0;
  w.job.traffic = tc;
  w.protocol.scheme = core::ParityScheme::Raid5;
  w.jobs_per_pass = 3;
  w.setup_probes = 30;
  return w;
}

Workload rebuild_rs() {
  Workload w;
  w.name = "rebuild_rs";
  w.cluster.nodes = 64;
  w.cluster.vms_per_node = 4;
  w.cluster.page_size = kib(4);
  w.cluster.pages_per_vm = 64;
  w.cluster.write_rate = 20.0;
  w.cluster.hot_fraction = 1.0;  // uniform writes
  w.job.total_work = 120.0;
  w.job.interval = 10.0;
  w.mtbf = 60.0;
  w.protocol.scheme = core::ParityScheme::Rs;
  w.protocol.rs_parity = 2;
  w.planner.group_size = 12;
  w.planner.parity_reserve = 2;
  w.planner.layout = core::PlannerConfig::Layout::Declustered;
  w.jobs_per_pass = 3;
  w.setup_probes = 6;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch_fig5",
                                                 "serve_failover",
                                                 "rebuild_rs"};
  return names;
}

Workload make_workload(std::string_view name) {
  if (name == "batch_fig5") return batch_fig5();
  if (name == "serve_failover") return serve_failover();
  if (name == "rebuild_rs") return rebuild_rs();
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::uint64_t job_seed(std::uint64_t seed, std::size_t index) {
  // splitmix64 over (seed, index): distinct, well-mixed job seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

core::JobConfig job_config(const Workload& w, std::uint64_t seed) {
  core::JobConfig job = w.job;
  job.seed = seed;
  Rng rng(seed ^ 0x4641494cull /* "FAIL" */);
  // Scripted faults move by up to a second, so their phase against the
  // heartbeat and checkpoint clocks differs from job to job.
  for (failure::ScheduledFailure& ev : job.failure_schedule)
    ev.at += rng.uniform();
  if (w.mtbf > 0.0) {
    // Failures land after the first checkpoint commits: a failure before
    // it exercises no checkpoint scheme, only the fixed restart penalty.
    // The runtime's own cluster failure injector replays these gaps (and
    // picks each victim from the job's Rng); the last gap outlasts the job.
    const auto count = static_cast<std::size_t>(
        std::lround(job.total_work / w.mtbf));
    const SimTime first_commit = job.interval + 1.0;
    std::vector<SimTime> times;
    for (std::size_t i = 0; i < count; ++i)
      times.push_back(rng.uniform(first_commit, job.total_work));
    std::sort(times.begin(), times.end());
    SimTime last = 0.0;
    for (SimTime t : times) {
      job.failure_trace.push_back(t - last);
      last = t;
    }
    job.failure_trace.push_back(1e12);
  }
  return job;
}

std::unique_ptr<core::CheckpointBackend> make_backend(
    const Workload& w, simkit::Simulator& sim,
    cluster::ClusterManager& cluster) {
  return std::make_unique<core::DvdcBackend>(
      sim, cluster, w.protocol, core::RecoveryConfig{},
      core::make_workload_factory(w.cluster), w.planner);
}

}  // namespace perfbench
