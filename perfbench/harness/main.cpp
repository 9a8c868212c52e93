// vdc_perfbench — one run of the end-to-end benchmark.
//
//   vdc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans PATH]
//
// --trace 0 (timed run): builds the workload's stack several times for
// setup_s, then runs passes of the workload's jobs until S seconds have
// passed, checking every job and that every pass reproduces the first.
// Prints the end-to-end metrics.
//
// --trace 1 (traced run): one untimed-seam pass, one pass with the backend
// and observer seams wrapped in bench-side spans (written to PATH), then
// the layer probes. Prints the per-layer metrics.
//
// The last stdout line is `RESULT {json}`; the exit code is 0 only when
// every correctness check passed. perfbench/run.py builds this binary and
// turns its RESULT line into the benchmark's output.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "parity/kernels.hpp"
#include "parity/parallel.hpp"
#include "probes.hpp"

extern char** environ;

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct MetricInfo {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, in print order. Serving rows exist only on a
// workload with traffic.
constexpr MetricInfo kEndToEnd[] = {
    {"sim_s_per_wall_s", "sim-s/s"}, {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},         {"time_ratio", "ratio"},
    {"ckpt_overhead_s", "s"},        {"commit_latency_s", "s"},
    {"recovery_s", "s"},             {"wire_mib", "MiB"},
    {"serve_p50_s", "s"},            {"serve_p99_s", "s"},
    {"serve_downtime_s", "s"},       {"serve_goodput_rps", "req/s"},
    {"ops_failed_share", "share"},
};

// The per-layer metrics of a traced run, grouped by module.
constexpr MetricInfo kPerLayer[] = {
    {"vm.guest_s", "s"},
    {"vm.advance_ns_per_guest_s", "ns"},
    {"vm.host_share", "share"},
    {"simkit.events", "count"},
    {"simkit.queue_peak", "count"},
    {"simkit.events_cancelled", "count"},
    {"simkit.ns_per_event", "ns"},
    {"simkit.host_share", "share"},
    {"net.transfers", "count"},
    {"net.mib", "MiB"},
    {"net.active_flows_peak", "count"},
    {"net.solver_solves", "count"},
    {"net.solver_flows_solved", "count"},
    {"net.flows_per_solve", "ratio"},
    {"net.ns_per_flow_solved", "ns"},
    {"net.host_share", "share"},
    {"net.drops", "count"},
    {"net.retransmits", "count"},
    {"net.corrupt_frames", "count"},
    {"telemetry.series", "count"},
    {"telemetry.hist_samples", "count"},
    {"telemetry.ns_per_write", "ns"},
    {"core.checkpoint_host_s", "s"},
    {"core.epoch_host_s", "s"},
    {"checkpoint.capture_host_s", "s"},
    {"parity.fold_host_s", "s"},
    {"checkpoint.pages_copied", "count"},
    {"checkpoint.pages_shared", "count"},
    {"checkpoint.copy_mib", "MiB"},
    {"checkpoint.raw_dirty_mib", "MiB"},
    {"checkpoint.delta_mib", "MiB"},
    {"checkpoint.wire_over_dirty", "ratio"},
    {"parity.xor_mib", "MiB"},
    {"parity.fold_mib", "MiB"},
    {"core.epochs", "count"},
    {"core.epochs_failed", "count"},
    {"core.full_exchange_groups", "count"},
    {"core.handle_failure_host_s", "s"},
    {"core.recovery_host_s", "s"},
    {"recovery.attempts", "count"},
    {"recovery.cascades", "count"},
    {"recovery.mib", "MiB"},
    {"recovery.vms", "count"},
    {"cluster.boot_s", "s"},
    {"core.backend_build_s", "s"},
    {"cluster.plan_rebuilds", "count"},
    {"cluster.groups_reused", "count"},
    {"cluster.hb_suspected", "count"},
    {"cluster.hb_false_positives", "count"},
    {"workload.requests", "count"},
    {"workload.delivered", "count"},
    {"workload.retries", "count"},
    {"workload.timeouts", "count"},
    {"workload.delivered_ratio", "ratio"},
    {"workload.held_peak_mib", "MiB"},
    {"controlplane.frames", "count"},
    {"controlplane.elections", "count"},
    {"controlplane.log_committed", "count"},
    {"controlplane.commit_latency_p99_s", "s"},
    {"failure.injected", "count"},
    {"failure.during_recovery", "count"},
    {"core.ops_failed_share", "share"},
    {"cluster.setup_share", "share"},
    {"core.checkpoint_share", "share"},
    {"checkpoint.capture_share", "share"},
    {"parity.fold_share", "share"},
    {"core.recovery_share", "share"},
    {"unattributed_share", "share"},
    {"trace_overhead_share", "share"},
};

/// Host seconds each layer probe runs for.
constexpr double kProbeSeconds = 0.3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "vdc_perfbench: %s\nusage: vdc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds needs S > 0");
    } else if (flag == "--trace") {
      a.trace = std::atoi(value);
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace needs 0 or 1");
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Reasons this process must not measure anything, empty when clean.
std::vector<std::string> hygiene_problems() {
  std::vector<std::string> problems;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "VDC_", 4) == 0)
      problems.push_back(std::string("environment knob set: ") +
                         std::string(*e).substr(0, std::strcspn(*e, "=")));
#if !defined(__OPTIMIZE__)
  problems.push_back("build is not optimised");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  problems.push_back("build is sanitized");
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
    problems.push_back("build is sanitized");
  return problems;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_json_number(double x) {
  if (std::isfinite(x))
    std::printf("%.17g", x);
  else
    std::printf("null");
}

void print_result(bool correct, double attempted, double failed,
                  const MetricInfo* table, std::size_t n,
                  const std::map<std::string, double>& values,
                  std::uint64_t digest) {
  std::printf("RESULT {\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"sim_digest\": \"%016llx\", \"env\": {\"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"parity_kernel\": \"%s\", "
              "\"parity_threads\": %u, \"nproc\": %u}, \"metrics\": {",
              correct ? "true" : "false", attempted, failed,
              static_cast<unsigned long long>(digest), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER,
              vdc::parity::tier_name(vdc::parity::active_kernel().tier),
              vdc::parity::default_parity_threads(),
              std::thread::hardware_concurrency());
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(table[i].name);
    if (it == values.end()) continue;
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", table[i].name);
    print_json_number(it->second);
    std::printf(", \"unit\": \"%s\"}", table[i].unit);
    first = false;
  }
  std::printf("}}\n");
}

void print_table(const char* title, const MetricInfo* table, std::size_t n,
                 const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(table[i].name);
    if (it == values.end())
      std::printf("  %-36s %18s\n", table[i].name, "n/a");
    else
      std::printf("  %-36s %18.6g %s\n", table[i].name, it->second,
                  table[i].unit);
  }
}

bool all_correct(const std::vector<JobOutcome>& pass) {
  for (const JobOutcome& o : pass)
    if (!o.correct()) {
      std::printf("correctness: job failed (finished=%d scrub_clean=%d "
                  "scrub_groups=%.0f control_ok=%d serving_ok=%d)\n",
                  o.finished, o.scrub_clean, o.scrub_groups, o.control_ok,
                  o.serving_ok);
      return false;
    }
  return true;
}

int timed_run(const Workload& w, const Args& args) {
  // Setup is probed in rounds, before the first pass and after each one,
  // so its median spans the run instead of one moment of host load.
  std::vector<double> setups;
  const auto probe_round = [&] {
    for (std::size_t i = 0; i < w.setup_probes; ++i)
      setups.push_back(
          probe_setup(w, job_seed(args.seed, i % w.jobs_per_pass)));
  };
  probe_round();

  // Whole passes only, so every rate covers the same jobs; stop before a
  // pass that would end past the time budget.
  const Clock::time_point start = Clock::now();
  std::vector<JobOutcome> first;
  std::vector<double> rates;
  bool repeatable = true;
  double elapsed = 0.0;
  double pass_s = 0.0;
  do {
    Pass p = run_pass(w, args.seed, nullptr);
    rates.push_back(p.sim_s / p.run_s);
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    if (first.empty())
      first = std::move(p.outcomes);
    else if (sim_digest(p.outcomes) != sim_digest(first))
      repeatable = false;
    probe_round();
    const double now =
        std::chrono::duration<double>(Clock::now() - start).count();
    pass_s = now - elapsed;
    elapsed = now;
  } while (elapsed + pass_s <= args.seconds);

  std::map<std::string, double> values = sim_metrics(first);
  values["sim_s_per_wall_s"] = median(rates);
  values["setup_s"] = median(setups);
  values["peak_rss_mib"] = peak_rss_mib();

  bool correct = all_correct(first);
  if (!repeatable) {
    std::printf("correctness: a repeated pass changed its simulated outputs\n");
    correct = false;
  }
  const std::uint64_t digest = sim_digest(first);
  std::printf("workload %s seed %llu: %zu passes x %zu jobs, %zu setups, "
              "sim_digest %016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              rates.size(), first.size(), setups.size(),
              static_cast<unsigned long long>(digest));
  for (std::size_t j = 0; j < first.size(); ++j) {
    const JobOutcome& o = first[j];
    std::printf("  job %zu: %.1f s for %.0f s of work; %.0f failures, %.0f "
                "recovery episodes (%.2f s), %.0f restarts; %.0f epochs, "
                "%.0f aborted\n",
                j, o.completion_s, o.total_work_s,
                o.counts.at("failure.injected"), o.episodes, o.recovery_sum_s,
                o.restarts, o.epochs_committed, o.epochs_aborted);
  }
  print_table("end-to-end metrics:", kEndToEnd, std::size(kEndToEnd), values);
  std::printf("ops: %.0f attempted, %.0f failed in simulation\n",
              values["ops_attempted"], values["ops_failed"]);
  const double attempted = values["ops_attempted"];
  print_result(correct, attempted, correct ? 0.0 : attempted, kEndToEnd,
               std::size(kEndToEnd), values, digest);
  return correct ? 0 : 1;
}

int traced_run(const Workload& w, const Args& args) {
  const Pass plain = run_pass(w, args.seed, nullptr);
  Tracer tracer(w.name + "-" + std::to_string(args.seed));
  const Pass traced = run_pass(w, args.seed, &tracer);

  bool correct = all_correct(plain.outcomes) && all_correct(traced.outcomes);
  const std::uint64_t digest = sim_digest(traced.outcomes);
  if (digest != sim_digest(plain.outcomes)) {
    std::printf("correctness: the traced pass changed simulated outputs\n");
    correct = false;
  }
  if (!args.spans_path.empty() && !tracer.spans.write_jsonl(args.spans_path))
    std::fprintf(stderr, "vdc_perfbench: cannot write %s\n",
                 args.spans_path.c_str());

  std::map<std::string, double> v = layer_counts(traced.outcomes);
  const std::map<std::string, double> sim = sim_metrics(traced.outcomes);
  v["core.ops_failed_share"] = sim.at("ops_failed_share");

  // Seam times from the bench-side spans.
  const std::vector<Span>& spans = tracer.spans.spans();
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> dur;
  std::map<std::string, double> self_sum;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end < spans[i].start) continue;  // never closed
    dur[spans[i].name] += spans[i].duration();
    self_sum[spans[i].name] += self[i];
  }
  const double wall = dur["core.job"];
  const double jobs = static_cast<double>(traced.outcomes.size());
  v["core.checkpoint_host_s"] = dur["core.checkpoint"];
  v["core.epoch_host_s"] = dur["core.epoch"];
  v["checkpoint.capture_host_s"] = traced.capture_ns * 1e-9;
  v["parity.fold_host_s"] = traced.fold_ns * 1e-9;
  v["core.handle_failure_host_s"] = dur["core.handle_failure"];
  v["core.recovery_host_s"] = dur["core.recovery"];
  v["cluster.boot_s"] = dur["cluster.boot"] / jobs;
  v["core.backend_build_s"] = dur["core.backend_build"] / jobs;

  // Layer probes at the run's own scale.
  v["vm.advance_ns_per_guest_s"] = probe_vm_ns_per_guest_s(w, kProbeSeconds);
  v["simkit.ns_per_event"] = probe_simkit_ns_per_event(
      static_cast<std::size_t>(v["simkit.queue_peak"]), kProbeSeconds);
  // The flow probe churns as many flows as the run re-rated per solve on
  // average: at the peak flow count every solve is a worst case, which
  // overstates the run's cost per flow severalfold.
  const long flows = std::max(1L, std::lround(v["net.flows_per_solve"]));
  v["net.ns_per_flow_solved"] = probe_net_ns_per_flow_solved(
      static_cast<std::size_t>(v["net.hosts"]),
      static_cast<std::size_t>(flows), kProbeSeconds);
  v["telemetry.ns_per_write"] = probe_telemetry_ns_per_write(
      static_cast<std::size_t>(v["telemetry.series"]),
      static_cast<std::size_t>(std::lround(v["telemetry.label_arity"])),
      kProbeSeconds);

  // Shares of the traced run() wall time. Seam shares are measured; the
  // vm / simkit / net shares are probe estimates (count x unit cost).
  const auto share = [wall](double s) { return wall > 0 ? s / wall : 0.0; };
  v["vm.host_share"] =
      share(v["vm.guest_s"] * v["vm.advance_ns_per_guest_s"] * 1e-9);
  v["simkit.host_share"] =
      share(v["simkit.events"] * v["simkit.ns_per_event"] * 1e-9);
  v["net.host_share"] =
      share(v["net.solver_flows_solved"] * v["net.ns_per_flow_solved"] * 1e-9);
  v["cluster.setup_share"] =
      share(dur["cluster.boot"] + dur["core.backend_build"]);
  v["checkpoint.capture_share"] = share(traced.capture_ns * 1e-9);
  v["parity.fold_share"] = share(traced.fold_ns * 1e-9);
  v["core.checkpoint_share"] =
      share(self_sum["core.checkpoint"] -
            (tracer.capture_in_checkpoint_ns + tracer.fold_in_checkpoint_ns) *
                1e-9);
  v["core.recovery_share"] =
      share(self_sum["core.handle_failure"] + self_sum["core.abort_checkpoint"] +
            self_sum["core.on_node_failure"] + self_sum["core.abort_recovery"] +
            self_sum["core.on_job_restart"] + self_sum["core.observer"]);
  double attributed = 0.0;
  for (const char* name :
       {"vm.host_share", "simkit.host_share", "net.host_share",
        "cluster.setup_share", "checkpoint.capture_share", "parity.fold_share",
        "core.checkpoint_share", "core.recovery_share"})
    attributed += v[name];
  v["unattributed_share"] = 1.0 - attributed;
  v["trace_overhead_share"] =
      plain.call_s > 0 ? (traced.call_s - plain.call_s) / plain.call_s : 0.0;
  // A layer the workload does not run (no traffic, no control plane) did
  // no work: its counts are zero.
  for (const MetricInfo& m : kPerLayer) v.try_emplace(m.name, 0.0);

  std::printf("workload %s seed %llu (traced): %zu jobs, %zu spans, "
              "sim_digest %016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              traced.outcomes.size(), spans.size(),
              static_cast<unsigned long long>(digest));
  print_table("per-layer metrics:", kPerLayer, std::size(kPerLayer), v);
  for (const auto& [kind, count] : tracer.observed)
    std::printf("  observer %-20s %.0f\n", kind.c_str(), count);
  const double attempted = sim.at("ops_attempted");
  print_result(correct, attempted, correct ? 0.0 : attempted, kPerLayer,
               std::size(kPerLayer), v, digest);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::vector<std::string> problems = hygiene_problems();
  if (!problems.empty()) {
    for (const std::string& p : problems)
      std::fprintf(stderr, "vdc_perfbench: refusing to measure: %s\n",
                   p.c_str());
    return 3;
  }
  Workload w;
  try {
    w = make_workload(args.workload);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  return args.trace == 1 ? traced_run(w, args) : timed_run(w, args);
}
