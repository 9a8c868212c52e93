#pragma once
// Runs benchmark jobs through core::JobRunner and turns them into the
// benchmark's metrics.
//
// A *pass* is the workload's fixed set of jobs (seeds derived from the
// benchmark seed). Everything simulated about a pass is deterministic:
// JobOutcome holds those outputs (end-to-end inputs and exact per-layer
// counts), JobTiming the host clock. A traced pass additionally wraps the
// backend and observer seams in bench-side spans (spans.hpp).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Simulated outputs of one job, plus its correctness verdict.
struct JobOutcome {
  bool finished = false;
  double completion_s = 0.0;
  double total_work_s = 0.0;
  double overhead_s = 0.0;        // guests suspended for checkpoints
  double latency_sum_s = 0.0;     // sum of cut-to-commit latencies
  double recovery_sum_s = 0.0;    // sum of recovery episode durations
  std::vector<double> episode_s;  // each successful recovery episode
  double wire_bytes = 0.0;        // checkpoint bytes shipped
  double epochs_committed = 0.0;
  double epochs_aborted = 0.0;
  double episodes = 0.0;          // recovery episodes entered
  double restarts = 0.0;          // episodes escalated to a job restart
  // Serving plane (zero without traffic).
  double requests_issued = 0.0;   // distinct requests
  double requests_delivered = 0.0;
  double downtime_s = 0.0;
  double latency_p50_s = 0.0;     // post-warmup request latency
  double latency_p99_s = 0.0;
  // Exact per-layer counts, keyed by per-layer metric name.
  std::map<std::string, double> counts;
  // Correctness.
  bool scrub_clean = false;
  double scrub_groups = 0.0;
  bool control_ok = true;  // election safety, epoch sequence, log agreement
  bool serving_ok = true;  // delivered <= issued

  bool correct() const {
    return finished && scrub_clean && control_ok && serving_ok;
  }
  /// Benchmark operations: epochs attempted plus recovery episodes for a
  /// batch job, distinct requests issued for a serving job.
  double ops_attempted() const;
  /// The simulated share of those that failed: aborted epochs plus
  /// episodes escalated to a restart, or requests never delivered.
  double ops_failed() const;
};

/// Host clock of one job.
struct JobTiming {
  double setup_s = 0.0;  // JobRunner construction + run() up to the
                         // backend factory's return
  double run_s = 0.0;    // the rest of run()
  double call_s = 0.0;   // the whole run() call
  double sim_s = 0.0;    // simulated seconds the job covered
  double capture_ns = 0.0;  // dvdc.wall.capture_ns (host clock)
  double fold_ns = 0.0;     // dvdc.wall.fold_ns (host clock)
};

/// Bench-side spans and seam accumulators of a traced pass.
struct Tracer {
  explicit Tracer(std::string run_id) : spans(std::move(run_id)) {}
  SpanRecorder spans;
  SpanId job = kNoParent;  // the job span currently running
  double capture_in_checkpoint_ns = 0.0;  // dvdc.wall.* published inside
  double fold_in_checkpoint_ns = 0.0;     // CheckpointBackend::checkpoint
  std::map<std::string, double> observed;  // JobEvent kinds seen
};

struct JobRun {
  JobOutcome outcome;
  JobTiming timing;
};

/// Run one job of `w`. With a tracer, the backend is decorated and the
/// observer installed; the simulated outcome must not change.
JobRun run_job(const Workload& w, std::uint64_t seed, Tracer* tracer);

/// One pass: the workload's jobs_per_pass jobs, seeds derived from `seed`.
struct Pass {
  std::vector<JobOutcome> outcomes;
  double sim_s = 0.0;   // simulated seconds, summed over jobs
  double run_s = 0.0;   // run() minus setup, summed over jobs
  double call_s = 0.0;  // whole run() calls, summed over jobs
  double capture_ns = 0.0;
  double fold_ns = 0.0;
  std::vector<double> setup_s;  // per job
};

Pass run_pass(const Workload& w, std::uint64_t seed, Tracer* tracer);

/// Build the job's stack (JobRunner construction, cluster boot, guest
/// image fill, backend build) without running it; returns host seconds.
double probe_setup(const Workload& w, std::uint64_t seed);

/// 64-bit FNV-1a over every simulated output of a pass.
std::uint64_t sim_digest(const std::vector<JobOutcome>& pass);

/// The simulated end-to-end metrics of a pass, by name. Serving metrics
/// are present only when the pass served traffic.
std::map<std::string, double> sim_metrics(const std::vector<JobOutcome>& pass);

/// The pass's exact per-layer counts, aggregated over its jobs.
std::map<std::string, double> layer_counts(
    const std::vector<JobOutcome>& pass);

double median(std::vector<double> xs);

}  // namespace perfbench
