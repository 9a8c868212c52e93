// perfbench_selftest — checks the benchmark's own machinery.
//
//  1. Two passes at one seed give identical simulated end-to-end metrics
//     and per-layer counts (every workload, shortened jobs).
//  2. A traced pass (decorated backend, observer installed) gives the same
//     simulated outputs as an untraced one, and records the seam spans.
//  3. Span self time is right on a hand-built span tree.
//
// Run through `python3 perfbench/run.py --selftest`; exits non-zero on the
// first failed expectation.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "harness.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

/// The workload with one job per pass and a shorter job where its fault
/// schedule allows, so the self-test stays quick.
Workload quick(const std::string& name) {
  Workload w = make_workload(name);
  w.jobs_per_pass = 1;
  if (name == "batch_fig5") w.job.total_work = 1200.0;
  if (name == "rebuild_rs") w.job.total_work = 60.0;
  return w;
}

void repeat_runs_agree(const std::string& name) {
  const Workload w = quick(name);
  const Pass a = run_pass(w, 5, nullptr);
  const Pass b = run_pass(w, 5, nullptr);
  expect(sim_digest(a.outcomes) == sim_digest(b.outcomes),
         name + ": repeat pass has the same sim_digest");
  expect(sim_metrics(a.outcomes) == sim_metrics(b.outcomes),
         name + ": repeat pass has the same simulated end-to-end metrics");
  expect(layer_counts(a.outcomes) == layer_counts(b.outcomes),
         name + ": repeat pass has the same per-layer counts");
  bool correct = true;
  for (const JobOutcome& o : a.outcomes) correct = correct && o.correct();
  expect(correct, name + ": every job passes its correctness checks");
  const Pass other = run_pass(w, 6, nullptr);
  expect(sim_digest(other.outcomes) != sim_digest(a.outcomes),
         name + ": another seed gives other simulated outputs");
}

void traced_matches_untraced(const std::string& name) {
  const Workload w = quick(name);
  const Pass plain = run_pass(w, 5, nullptr);
  Tracer tracer("selftest");
  const Pass traced = run_pass(w, 5, &tracer);
  expect(sim_digest(plain.outcomes) == sim_digest(traced.outcomes),
         name + ": traced pass has the same sim_digest as untraced");
  std::map<std::string, int> seen;
  for (const Span& s : tracer.spans.spans()) {
    ++seen[s.name];
    if (s.end < s.start) ++seen["open"];
  }
  for (const char* span : {"core.job", "cluster.boot", "core.backend_build",
                           "core.checkpoint", "core.epoch",
                           "core.handle_failure", "core.recovery",
                           "core.observer"})
    expect(seen[span] > 0, name + ": traced pass recorded " + span);
  expect(seen["core.job"] == static_cast<int>(traced.outcomes.size()),
         name + ": one core.job span per job");
}

void self_time_on_hand_built_tree() {
  SpanRecorder rec("tree");
  const SpanId root = rec.add("root", kNoParent, 0.0, 10.0);
  const SpanId a = rec.add("a", root, 1.0, 4.0);
  rec.add("b", root, 3.0, 6.0);           // overlaps a: union [1, 6]
  rec.add("a.child", a, 2.0, 3.0);        // counts for a, not for root
  rec.add("async", root, 0.0, 10.0, true);  // never subtracted
  rec.add("late", root, 9.0, 12.0);       // clipped to [9, 10]
  const SpanId lone = rec.add("lone", kNoParent, 20.0, 21.5);
  const std::vector<double> self = self_times(rec.spans());
  expect(near(self[root - 1], 4.0), "self time: root = 10 - |[1,6] u [9,10]|");
  expect(near(self[a - 1], 2.0), "self time: a = 3 - 1");
  expect(near(self[lone - 1], 1.5), "self time: a childless span is its duration");
  expect(near(self[4], 10.0), "self time: an async span keeps its duration");
}

}  // namespace

int main() {
  self_time_on_hand_built_tree();
  for (const std::string& name : workload_names()) {
    repeat_runs_agree(name);
    traced_matches_untraced(name);
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
