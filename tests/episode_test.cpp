// Recovery-episode paths of the JobRunner supervisor, one scripted run
// each: oracle and wire crashes, a suspicion raised by a partition, oracle
// and wire cascades, escalation to a job restart, and a cascade inside the
// restart window.
//
// Every run pins a digest of its JobEvent stream and RunResult, so a
// refactor of the supervisor must keep each path's simulated behaviour
// bit-identical. Every run also checks the committed control log: an
// episode opens (kRecoveryBegin) only on a victim that is already fenced
// when the episode fences it at all, so a replayed log never shows a
// recovery running against an unfenced node.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "failure/injector.hpp"

namespace vdc::core {
namespace {

using Kind = controlplane::ControlEntry::Kind;

ClusterConfig episode_cluster() {
  ClusterConfig cc;
  cc.nodes = 6;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 32;
  cc.write_rate = 100.0;
  return cc;
}

// RS with two parity blocks per group: any two node losses stay
// recoverable, so the cascades below settle instead of escalating.
JobRunner::BackendFactory rs2_factory(ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
    ProtocolConfig protocol;
    protocol.scheme = ParityScheme::Rs;
    protocol.rs_parity = 2;
    return std::make_unique<DvdcBackend>(sim, cluster, protocol,
                                         RecoveryConfig{},
                                         make_workload_factory(cc));
  };
}

JobConfig episode_job(const char* schedule, bool wire) {
  JobConfig job;
  job.total_work = minutes(4);
  job.interval = minutes(1);
  job.seed = 17;
  job.control = controlplane::ControlPlaneConfig{};
  if (wire) job.heartbeat = cluster::HeartbeatConfig{};
  job.failure_schedule = failure::ScheduledFailureInjector::parse(schedule);
  return job;
}

// FNV-1a over the exact bits of every field.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void f64(double x) { u64(std::bit_cast<std::uint64_t>(x)); }
};

struct Scenario {
  std::unique_ptr<JobRunner> runner;
  std::vector<JobEvent> events;
  RunResult result;
  std::vector<controlplane::ControlEntry> log;  // committed prefix

  std::size_t count(JobEvent::Kind kind) const {
    std::size_t n = 0;
    for (const auto& ev : events) n += ev.kind == kind;
    return n;
  }

  std::uint64_t digest() const {
    Fnv f;
    for (const JobEvent& ev : events) {
      f.u64(static_cast<std::uint64_t>(ev.kind));
      f.f64(ev.time);
      f.f64(ev.committed_work);
      f.u64(ev.node);
      f.u64(ev.success ? 1 : 0);
    }
    const RunResult& r = result;
    f.u64(r.finished ? 1 : 0);
    for (double x : {r.completion, r.total_work, r.time_ratio,
                     r.total_overhead, r.checkpoint_latency_sum,
                     r.total_recovery, r.lost_work})
      f.f64(x);
    for (std::uint64_t x :
         {std::uint64_t{r.failures}, std::uint64_t{r.failures_during_recovery},
          std::uint64_t{r.recovery_cascades}, std::uint64_t{r.epochs},
          std::uint64_t{r.job_restarts}, std::uint64_t{r.bytes_shipped},
          std::uint64_t{r.peak_state_bytes}})
      f.u64(x);
    return f.h;
  }
};

// The longest committed prefix any replica holds.
std::vector<controlplane::ControlEntry> committed_log(
    const controlplane::ControlPlane& cp) {
  controlplane::NodeId best = 0;
  for (controlplane::NodeId n = 1; n < cp.replica_count(); ++n)
    if (cp.commit_index(n) > cp.commit_index(best)) best = n;
  std::vector<controlplane::ControlEntry> out;
  const auto& log = cp.log(best);
  for (std::size_t i = 0; i < cp.commit_index(best) && i < log.size(); ++i)
    out.push_back(log[i].entry);
  return out;
}

Scenario run_scenario(JobConfig job) {
  Scenario s;
  job.observer = [&events = s.events](const JobEvent& ev) {
    events.push_back(ev);
  };
  s.runner = std::make_unique<JobRunner>(job, episode_cluster(),
                                         rs2_factory(episode_cluster()));
  s.result = s.runner->run();
  s.log = committed_log(*s.runner->control());
  return s;
}

// Each kRecoveryBegin(v) comes after v's kNodeFenced: nothing fences v
// between the begin and v's rejoin (or the next episode). In wire mode
// the episode must also have fenced v since v's kNodeFailed.
void expect_fenced_before_begin(
    const std::vector<controlplane::ControlEntry>& log, bool wire) {
  std::size_t begins = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind != Kind::kRecoveryBegin) continue;
    ++begins;
    const std::uint64_t v = log[i].value;
    for (std::size_t j = i + 1; j < log.size(); ++j) {
      if (log[j].kind == Kind::kRecoveryBegin) break;
      if (log[j].kind == Kind::kNodeRejoined && log[j].value == v) break;
      EXPECT_FALSE(log[j].kind == Kind::kNodeFenced && log[j].value == v)
          << "node " << v << " fenced at log index " << j
          << ", after its episode began at index " << i;
    }
    if (!wire) continue;
    bool fenced = false;
    for (std::size_t j = i; j-- > 0;) {
      if (log[j].kind == Kind::kNodeFailed && log[j].value == v) break;
      fenced = fenced || (log[j].kind == Kind::kNodeFenced &&
                          log[j].value == v);
    }
    EXPECT_TRUE(fenced) << "episode at log index " << i << " began on node "
                        << v << " before fencing it";
  }
  EXPECT_GE(begins, 1u) << "no episode reached the committed log";
}

void expect_digest(const Scenario& s, std::uint64_t pinned) {
  const std::uint64_t digest = s.digest();
  EXPECT_EQ(digest, pinned)
      << "the episode's JobEvent stream or RunResult changed; digest now 0x"
      << std::hex << digest;
}

TEST(Episode, OracleCrash) {
  const Scenario s = run_scenario(episode_job("fail 70 4\n", false));
  ASSERT_TRUE(s.result.finished);
  EXPECT_EQ(s.count(JobEvent::Kind::Failure), 1u);
  EXPECT_EQ(s.count(JobEvent::Kind::RecoverySettled), 1u);
  EXPECT_EQ(s.result.job_restarts, 0u);
  expect_fenced_before_begin(s.log, false);
  expect_digest(s, 0x497e9095d291b86bull);
}

TEST(Episode, WireCrash) {
  const Scenario s = run_scenario(episode_job("fail 70 4\n", true));
  ASSERT_TRUE(s.result.finished);
  EXPECT_EQ(s.count(JobEvent::Kind::Failure), 1u);
  EXPECT_EQ(s.count(JobEvent::Kind::RecoverySettled), 1u);
  EXPECT_EQ(s.result.job_restarts, 0u);
  expect_fenced_before_begin(s.log, true);
  expect_digest(s, 0x3962c0237c6991ccull);
}

TEST(Episode, SuspicionViaPartition) {
  // The heal lands while the episode is still reconstructing, so the
  // false positive is reconciled when the episode settles.
  const Scenario s =
      run_scenario(episode_job("partition 70 2 1\nheal 73 2\n", true));
  JobRunner* runner = s.runner.get();
  ASSERT_TRUE(s.result.finished);
  const auto& metrics = runner->sim().telemetry().metrics();
  EXPECT_DOUBLE_EQ(metrics.value("job.suspected_failures"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value("recovery.fenced"), 1.0);
  EXPECT_EQ(s.result.failures, 0u);
  EXPECT_EQ(s.count(JobEvent::Kind::Failure), 1u);
  // The zombie's replica kept running behind the partition: it campaigned
  // alone there, and its raised term forced one election after the heal.
  EXPECT_EQ(runner->control()->elections(), 1u);
  // The zombie rejoined with its replica intact.
  for (cluster::NodeId n = 0; n < episode_cluster().nodes; ++n)
    EXPECT_TRUE(runner->cluster().node(n).alive()) << "node " << n;
  for (controlplane::NodeId n = 0; n < runner->control()->replica_count();
       ++n)
    EXPECT_TRUE(runner->control()->replica_synced(n)) << "replica " << n;
  expect_fenced_before_begin(s.log, true);
  expect_digest(s, 0xa04d1ebd964aed1cull);
}

TEST(Episode, OracleCascade) {
  const Scenario s = run_scenario(episode_job("fail 70 4\nfail 72 5\n", false));
  ASSERT_TRUE(s.result.finished);
  EXPECT_EQ(s.count(JobEvent::Kind::Failure), 1u);
  EXPECT_EQ(s.count(JobEvent::Kind::Cascade), 1u);
  EXPECT_EQ(s.result.recovery_cascades, 1u);
  EXPECT_EQ(s.result.job_restarts, 0u);
  expect_fenced_before_begin(s.log, false);
  expect_digest(s, 0xb1f78d595f062dd1ull);
}

TEST(Episode, WireCascade) {
  const Scenario s = run_scenario(episode_job("fail 70 4\nfail 72 5\n", true));
  ASSERT_TRUE(s.result.finished);
  EXPECT_EQ(s.count(JobEvent::Kind::Failure), 1u);
  EXPECT_EQ(s.count(JobEvent::Kind::Cascade), 1u);
  EXPECT_EQ(s.result.recovery_cascades, 1u);
  EXPECT_EQ(s.result.job_restarts, 0u);
  expect_fenced_before_begin(s.log, true);
  expect_digest(s, 0x1dd73096e10adc50ull);
}

TEST(Episode, EscalationToRestart) {
  // Before the first commit there is nothing to recover from.
  const Scenario s = run_scenario(episode_job("fail 20 4\n", false));
  ASSERT_TRUE(s.result.finished);
  EXPECT_EQ(s.result.job_restarts, 1u);
  EXPECT_EQ(s.count(JobEvent::Kind::Restart), 1u);
  expect_fenced_before_begin(s.log, false);
  expect_digest(s, 0x2c7a3a1ab1351f2aull);
}

TEST(Episode, CascadeInsideRestartWindow) {
  // The second strike lands inside the first restart's penalty window:
  // the restart is redone with the new victim folded in.
  const Scenario s =
      run_scenario(episode_job("fail 20 4\nfail 35 5\n", false));
  ASSERT_TRUE(s.result.finished);
  EXPECT_EQ(s.count(JobEvent::Kind::Cascade), 1u);
  EXPECT_EQ(s.count(JobEvent::Kind::Restart), 2u);
  expect_fenced_before_begin(s.log, false);
  expect_digest(s, 0xbd9ecb806c966655ull);
}

}  // namespace
}  // namespace vdc::core
