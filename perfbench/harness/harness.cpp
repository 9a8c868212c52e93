#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/scrub.hpp"

namespace perfbench {

using namespace vdc;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kMiB = 1024.0 * 1024.0;
/// Events a post-run scrub may take before the check counts as failed.
constexpr std::uint64_t kMaxScrubEvents = 10'000'000;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const char* kind_name(core::JobEvent::Kind kind) {
  switch (kind) {
    case core::JobEvent::Kind::EpochCommit: return "epoch_commit";
    case core::JobEvent::Kind::Failure: return "failure";
    case core::JobEvent::Kind::Cascade: return "cascade";
    case core::JobEvent::Kind::RecoverySettled: return "recovery_settled";
    case core::JobEvent::Kind::Rollback: return "rollback";
    case core::JobEvent::Kind::Restart: return "restart";
  }
  return "unknown";
}

/// Decorates the job's backend with bench-side spans. Every call is
/// forwarded unchanged, so the simulated run is identical to an
/// undecorated one.
class TracingBackend final : public core::CheckpointBackend {
 public:
  TracingBackend(std::unique_ptr<core::CheckpointBackend> inner,
                 simkit::Simulator& sim, Tracer& tracer)
      : inner_(std::move(inner)), sim_(sim), tracer_(tracer) {}

  core::CheckpointBackend& inner() { return *inner_; }

  void checkpoint(checkpoint::Epoch epoch, EpochDone done) override {
    auto& metrics = sim_.telemetry().metrics();
    const double capture0 = metrics.value("dvdc.wall.capture_ns");
    const double fold0 = metrics.value("dvdc.wall.fold_ns");
    epoch_span_ = tracer_.spans.begin("core.epoch", tracer_.job, true);
    const SpanId call = tracer_.spans.begin("core.checkpoint", tracer_.job);
    inner_->checkpoint(epoch, [this, span = epoch_span_, done = std::move(
                                                             done)](
                                  const core::EpochStats& stats) {
      close(span, epoch_span_);
      done(stats);
    });
    tracer_.spans.end(call);
    tracer_.capture_in_checkpoint_ns +=
        metrics.value("dvdc.wall.capture_ns") - capture0;
    tracer_.fold_in_checkpoint_ns +=
        metrics.value("dvdc.wall.fold_ns") - fold0;
  }

  SimTime early_resume_delay() const override {
    return inner_->early_resume_delay();
  }

  void abort_checkpoint() override {
    const SpanId call =
        tracer_.spans.begin("core.abort_checkpoint", tracer_.job);
    inner_->abort_checkpoint();
    tracer_.spans.end(call);
    close(epoch_span_, epoch_span_);
  }

  void on_node_failure(cluster::NodeId victim) override {
    const SpanId call =
        tracer_.spans.begin("core.on_node_failure", tracer_.job);
    inner_->on_node_failure(victim);
    tracer_.spans.end(call);
  }

  void handle_failure(const std::vector<vm::VmId>& lost,
                      RecoveryDone done) override {
    recovery_span_ = tracer_.spans.begin("core.recovery", tracer_.job, true);
    const SpanId call =
        tracer_.spans.begin("core.handle_failure", tracer_.job);
    inner_->handle_failure(
        lost, [this, span = recovery_span_,
               done = std::move(done)](const core::RecoveryStats& stats) {
          close(span, recovery_span_);
          done(stats);
        });
    tracer_.spans.end(call);
  }

  bool abort_recovery() override {
    const SpanId call =
        tracer_.spans.begin("core.abort_recovery", tracer_.job);
    const bool aborted = inner_->abort_recovery();
    tracer_.spans.end(call);
    close(recovery_span_, recovery_span_);
    return aborted;
  }

  checkpoint::Epoch committed_epoch() const override {
    return inner_->committed_epoch();
  }

  void on_job_restart() override {
    const SpanId call =
        tracer_.spans.begin("core.on_job_restart", tracer_.job);
    inner_->on_job_restart();
    tracer_.spans.end(call);
  }

  void set_commit_gate(CommitGate gate) override {
    inner_->set_commit_gate(std::move(gate));
  }

  std::string name() const override { return inner_->name(); }

 private:
  /// End the async span `span` if it is still the open one in `slot`.
  void close(SpanId span, SpanId& slot) {
    if (span == kNoParent || span != slot) return;
    tracer_.spans.end(span);
    slot = kNoParent;
  }

  std::unique_ptr<core::CheckpointBackend> inner_;
  simkit::Simulator& sim_;
  Tracer& tracer_;
  SpanId epoch_span_ = kNoParent;
  SpanId recovery_span_ = kNoParent;
};

core::DvdcBackend* as_dvdc(core::CheckpointBackend* backend) {
  if (auto* traced = dynamic_cast<TracingBackend*>(backend))
    backend = &traced->inner();
  return dynamic_cast<core::DvdcBackend*>(backend);
}

/// Per-name totals over every labelled series of a registry.
struct SeriesTotals {
  std::map<std::string, double> sums;
  double hist_samples = 0.0;
  double label_slots = 0.0;
};

SeriesTotals totals(const telemetry::MetricsRegistry& metrics) {
  SeriesTotals t;
  for (const telemetry::Metric* m : metrics.all()) {
    t.sums[m->name] += m->value;
    t.hist_samples += static_cast<double>(m->samples.count());
    t.label_slots += static_cast<double>(m->labels.size());
  }
  return t;
}

/// Read every simulated output of a finished job (before any post-run
/// check touches the simulator).
void collect(core::JobRunner& runner, const core::RunResult& result,
             JobOutcome& o) {
  simkit::Simulator& sim = runner.sim();
  const auto& metrics = sim.telemetry().metrics();
  const SeriesTotals t = totals(metrics);
  const auto sum = [&t](const char* name) {
    const auto it = t.sums.find(name);
    return it == t.sums.end() ? 0.0 : it->second;
  };

  o.finished = result.finished;
  o.completion_s = result.completion;
  o.total_work_s = result.total_work;
  o.overhead_s = result.total_overhead;
  o.latency_sum_s = result.checkpoint_latency_sum;
  o.recovery_sum_s = result.total_recovery;
  o.wire_bytes = static_cast<double>(result.bytes_shipped);
  o.epochs_committed = metrics.value("job.epochs");
  o.epochs_aborted = metrics.value("dvdc.epochs_aborted");
  o.episodes = metrics.value("cluster.degraded_episodes");
  o.restarts = metrics.value("job.restarts");

  auto& c = o.counts;
  c["simkit.events"] = static_cast<double>(sim.executed());
  c["simkit.events_cancelled"] = static_cast<double>(sim.cancelled());
  c["simkit.queue_peak"] = static_cast<double>(sim.queue_peak());

  net::Fabric& fabric = runner.cluster().fabric();
  c["net.hosts"] = static_cast<double>(fabric.host_count());
  c["net.transfers"] = sum("net.transfers");
  c["net.mib"] = sum("net.bytes") / kMiB;
  c["net.active_flows_peak"] = metrics.peak("net.active_flows");
  c["net.solver_solves"] =
      static_cast<double>(fabric.network().solver_solves());
  c["net.solver_flows_solved"] =
      static_cast<double>(fabric.network().solver_flows_solved());
  c["net.drops"] = metrics.value("net.drops");
  c["net.retransmits"] = metrics.value("net.retransmits");
  c["net.corrupt_frames"] = metrics.value("net.corrupt_frames");

  c["telemetry.series"] = static_cast<double>(metrics.size());
  c["telemetry.hist_samples"] = t.hist_samples;
  c["telemetry.label_arity"] =
      metrics.size() > 0 ? t.label_slots / static_cast<double>(metrics.size())
                         : 0.0;

  c["checkpoint.pages_copied"] = metrics.value("dvdc.pages.copied");
  c["checkpoint.pages_shared"] = metrics.value("dvdc.pages.shared");
  c["checkpoint.copy_mib"] = metrics.value("dvdc.copy.bytes") / kMiB;
  c["checkpoint.raw_dirty_mib"] = sum("dvdc.epoch.raw_dirty_bytes") / kMiB;
  c["checkpoint.delta_mib"] = sum("exchange.delta_bytes") / kMiB;
  c["checkpoint.shipped_mib"] = sum("dvdc.epoch.bytes_shipped") / kMiB;
  c["parity.xor_mib"] = sum("dvdc.epoch.bytes_xored") / kMiB;
  c["parity.fold_mib"] = sum("parity.kernel.fold_bytes") / kMiB;
  c["core.epochs"] = o.epochs_committed;
  c["core.epochs_failed"] = o.epochs_aborted;
  c["core.full_exchange_groups"] = sum("dvdc.epoch.full_exchange_groups");

  c["recovery.attempts"] = metrics.value("recovery.attempts");
  c["recovery.cascades"] = metrics.value("recovery.cascades");
  c["recovery.mib"] = sum("recovery.bytes") / kMiB;
  c["recovery.vms"] = sum("recovery.vms");

  c["cluster.plan_rebuilds"] = metrics.value("plan.rebuilds");
  c["cluster.groups_reused"] = metrics.value("plan.groups_reused");
  c["cluster.hb_suspected"] = metrics.value("hb.suspected");
  c["cluster.hb_false_positives"] = metrics.value("hb.false_positives");

  c["failure.injected"] = metrics.value("job.failures");
  c["failure.during_recovery"] =
      metrics.value("job.failures_during_recovery");

  double guest_s = 0.0;
  cluster::ClusterManager& cluster = runner.cluster();
  for (cluster::NodeId n = 0; n < cluster.node_count(); ++n) {
    const vm::Hypervisor& hv = cluster.node(n).hypervisor();
    for (vm::VmId id : hv.vm_ids()) guest_s += hv.get(id).cpu_time();
  }
  c["vm.guest_s"] = guest_s;

  if (workload::TrafficPlane* traffic = runner.traffic()) {
    const workload::TrafficPlane::Summary s = traffic->summary();
    o.requests_issued = static_cast<double>(s.requests - s.retries);
    o.requests_delivered = static_cast<double>(s.delivered);
    o.downtime_s = s.downtime_visible;
    o.latency_p50_s = s.latency_p50;
    o.latency_p99_s = s.latency_p99;
    c["workload.requests"] = static_cast<double>(s.requests);
    c["workload.issued"] = o.requests_issued;
    c["workload.delivered"] = o.requests_delivered;
    c["workload.retries"] = static_cast<double>(s.retries);
    c["workload.timeouts"] = static_cast<double>(s.timeouts);
    c["workload.held_peak_mib"] =
        static_cast<double>(s.held_bytes_peak) / kMiB;
  }
  if (runner.control() != nullptr) {
    c["controlplane.frames"] = metrics.value("cp.frames");
    c["controlplane.elections"] = metrics.value("cp.elections");
    c["controlplane.log_committed"] = metrics.value("cp.log.committed");
    if (const telemetry::Metric* m = metrics.find("cp.commit_latency_s"))
      c["controlplane.commit_latency_p99_s"] = m->samples.percentile(99.0);
  }
}

/// The post-run correctness checks: a repair-off scrub over the backend's
/// plan, the control plane's audited invariants, and delivered <= issued.
void check(core::JobRunner& runner, JobOutcome& o) {
  o.serving_ok = o.requests_delivered <= o.requests_issued;
  if (controlplane::ControlPlane* cp = runner.control())
    o.control_ok = cp->election_safety_ok() && cp->epoch_sequence_ok() &&
                   cp->logs_consistent();

  core::DvdcBackend* dvdc = as_dvdc(runner.backend());
  if (dvdc == nullptr) return;
  std::optional<core::ScrubReport> report;
  core::ParityScrubber scrubber(runner.sim(), runner.cluster(), dvdc->state());
  scrubber.scrub(dvdc->placed_plan(), /*repair=*/false,
                 [&report](const core::ScrubReport& r) { report = r; });
  for (std::uint64_t i = 0;
       !report.has_value() && i < kMaxScrubEvents && runner.sim().step(); ++i) {
  }
  o.scrub_groups =
      report ? static_cast<double>(report->groups_checked) : 0.0;
  o.scrub_clean = report.has_value() && report->clean() &&
                  report->groups_checked > 0;
}

/// Thrown by the setup probe's factory once the backend is built.
struct SetupBuilt {};

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void num(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  void text(const std::string& s) { bytes(s.data(), s.size() + 1); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace

double JobOutcome::ops_attempted() const {
  if (requests_issued > 0.0) return requests_issued;
  return epochs_committed + epochs_aborted + episodes;
}

double JobOutcome::ops_failed() const {
  if (requests_issued > 0.0) return requests_issued - requests_delivered;
  return epochs_aborted + restarts;
}

JobRun run_job(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  JobRun out;
  Clock::time_point factory_entry{};
  Clock::time_point factory_return{};

  // The observer times every recovery episode (first failure out of a
  // healthy cluster to its successful RecoverySettled); traced, it is a
  // span too.
  core::JobConfig job = job_config(w, seed);
  double episode_start = -1.0;
  job.observer = [&out, &episode_start, tracer](const core::JobEvent& ev) {
    const SpanId call = tracer != nullptr
                            ? tracer->spans.begin("core.observer", tracer->job)
                            : kNoParent;
    using Kind = core::JobEvent::Kind;
    if (ev.kind == Kind::Failure && episode_start < 0.0)
      episode_start = ev.time;
    if (ev.kind == Kind::RecoverySettled) {
      if (ev.success && episode_start >= 0.0)
        out.outcome.episode_s.push_back(ev.time - episode_start);
      episode_start = -1.0;
    }
    if (tracer != nullptr) {
      tracer->observed[kind_name(ev.kind)] += 1.0;
      tracer->spans.end(call);
    }
  };
  auto factory = [&](simkit::Simulator& sim, cluster::ClusterManager& cluster,
                     Rng&) -> std::unique_ptr<core::CheckpointBackend> {
    factory_entry = Clock::now();
    std::unique_ptr<core::CheckpointBackend> backend =
        make_backend(w, sim, cluster);
    if (tracer != nullptr)
      backend = std::make_unique<TracingBackend>(std::move(backend), sim,
                                                 *tracer);
    factory_return = Clock::now();
    return backend;
  };

  const Clock::time_point t0 = Clock::now();
  core::JobRunner runner(job, w.cluster, factory);
  const Clock::time_point t1 = Clock::now();
  SpanId job_span = kNoParent;
  if (tracer != nullptr) {
    job_span = tracer->spans.begin("core.job", kNoParent);
    tracer->job = job_span;
  }
  const Clock::time_point run_call = Clock::now();
  const core::RunResult result = runner.run();
  const Clock::time_point t3 = Clock::now();
  if (tracer != nullptr) {
    tracer->spans.end(job_span);
    SpanRecorder& rec = tracer->spans;
    rec.add("cluster.boot", job_span, rec.at(run_call), rec.at(factory_entry));
    rec.add("core.backend_build", job_span, rec.at(factory_entry),
            rec.at(factory_return));
    tracer->job = kNoParent;
  }

  out.timing.setup_s = seconds(t0, t1) + seconds(run_call, factory_return);
  out.timing.run_s = seconds(factory_return, t3);
  out.timing.call_s = seconds(run_call, t3);
  out.timing.sim_s = runner.sim().now();
  const auto& metrics = runner.sim().telemetry().metrics();
  out.timing.capture_ns = metrics.value("dvdc.wall.capture_ns");
  out.timing.fold_ns = metrics.value("dvdc.wall.fold_ns");

  collect(runner, result, out.outcome);
  check(runner, out.outcome);
  return out;
}

Pass run_pass(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  Pass p;
  for (std::size_t j = 0; j < w.jobs_per_pass; ++j) {
    JobRun r = run_job(w, job_seed(seed, j), tracer);
    p.sim_s += r.timing.sim_s;
    p.run_s += r.timing.run_s;
    p.call_s += r.timing.call_s;
    p.capture_ns += r.timing.capture_ns;
    p.fold_ns += r.timing.fold_ns;
    p.setup_s.push_back(r.timing.setup_s);
    p.outcomes.push_back(std::move(r.outcome));
  }
  return p;
}

double probe_setup(const Workload& w, std::uint64_t seed) {
  Clock::time_point built{};
  auto factory = [&](simkit::Simulator& sim, cluster::ClusterManager& cluster,
                     Rng&) -> std::unique_ptr<core::CheckpointBackend> {
    auto backend = make_backend(w, sim, cluster);
    built = Clock::now();
    throw SetupBuilt{};
  };
  const Clock::time_point t0 = Clock::now();
  core::JobRunner runner(job_config(w, seed), w.cluster, factory);
  const Clock::time_point t1 = Clock::now();
  const Clock::time_point run_call = Clock::now();
  try {
    runner.run();
  } catch (const SetupBuilt&) {
    return seconds(t0, t1) + seconds(run_call, built);
  }
  throw std::logic_error("setup probe: the backend factory was not called");
}

std::uint64_t sim_digest(const std::vector<JobOutcome>& pass) {
  Fnv h;
  for (const JobOutcome& o : pass) {
    for (double x :
         {o.finished ? 1.0 : 0.0, o.completion_s, o.total_work_s,
          o.overhead_s, o.latency_sum_s, o.recovery_sum_s, o.wire_bytes,
          o.epochs_committed, o.epochs_aborted, o.episodes, o.restarts,
          o.requests_issued, o.requests_delivered, o.downtime_s,
          o.latency_p50_s, o.latency_p99_s,
          o.scrub_clean ? 1.0 : 0.0, o.scrub_groups,
          o.control_ok ? 1.0 : 0.0, o.serving_ok ? 1.0 : 0.0})
      h.num(x);
    for (const auto& [name, value] : o.counts) {
      h.text(name);
      h.num(value);
    }
    for (double x : o.episode_s) h.num(x);
  }
  return h.value();
}

std::map<std::string, double> sim_metrics(
    const std::vector<JobOutcome>& pass) {
  double completion = 0, work = 0, overhead = 0, latency = 0, epochs = 0,
         wire = 0, attempted = 0, failed = 0, issued = 0, delivered = 0,
         downtime = 0;
  Samples episodes;
  double p50 = 0, p99 = 0;
  for (const JobOutcome& o : pass) {
    completion += o.completion_s;
    work += o.total_work_s;
    overhead += o.overhead_s;
    latency += o.latency_sum_s;
    epochs += o.epochs_committed;
    for (double e : o.episode_s) episodes.add(e);
    wire += o.wire_bytes;
    attempted += o.ops_attempted();
    failed += o.ops_failed();
    issued += o.requests_issued;
    delivered += o.requests_delivered;
    downtime += o.downtime_s;
    p50 += o.latency_p50_s;
    p99 += o.latency_p99_s;
  }
  const double jobs = static_cast<double>(pass.size());
  std::map<std::string, double> m;
  m["time_ratio"] = work > 0 ? completion / work : 0.0;
  m["ckpt_overhead_s"] = overhead / jobs;
  m["commit_latency_s"] = epochs > 0 ? latency / epochs : 0.0;
  m["recovery_s"] = episodes.median();
  m["wire_mib"] = wire / jobs / kMiB;
  m["ops_attempted"] = attempted;
  m["ops_failed"] = failed;
  m["ops_failed_share"] = attempted > 0 ? failed / attempted : 0.0;
  if (issued > 0) {
    m["serve_p50_s"] = p50 / jobs;
    m["serve_p99_s"] = p99 / jobs;
    m["serve_downtime_s"] = downtime / jobs;
    m["serve_goodput_rps"] = completion > 0 ? delivered / completion : 0.0;
  }
  return m;
}

std::map<std::string, double> layer_counts(
    const std::vector<JobOutcome>& pass) {
  std::map<std::string, double> c;
  for (const JobOutcome& o : pass) {
    for (const auto& [name, value] : o.counts) {
      const bool high_water = name.find("peak") != std::string::npos ||
                              name == "telemetry.series" ||
                              name == "telemetry.label_arity" ||
                              name == "net.hosts";
      c[name] = high_water ? std::max(c[name], value) : c[name] + value;
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  c["net.flows_per_solve"] =
      ratio(c["net.solver_flows_solved"], c["net.solver_solves"]);
  c["checkpoint.wire_over_dirty"] =
      ratio(c["checkpoint.shipped_mib"], c["checkpoint.raw_dirty_mib"]);
  c["workload.delivered_ratio"] =
      ratio(c["workload.delivered"], c["workload.issued"]);
  c["controlplane.commit_latency_p99_s"] /=
      static_cast<double>(std::max<std::size_t>(pass.size(), 1));
  return c;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace perfbench
