// Tests for the telemetry layer: registry semantics (labels, counters,
// gauges, histograms), span nesting and ordering, JSON escaping, the file
// sinks, and the end-to-end JobRunner integration (six epoch phases, four
// recovery phases, durations reconciling with RunResult).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/baseline.hpp"
#include "core/runtime.hpp"
#include "net/fabric.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace vdc::telemetry {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry reg;
  reg.add("hits", 1.0);
  reg.add("hits", 2.5);
  EXPECT_DOUBLE_EQ(reg.value("hits"), 3.5);
  EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);
  EXPECT_EQ(reg.find("absent"), nullptr);
}

TEST(MetricsRegistry, LabelsAreOrderInsensitive) {
  MetricsRegistry reg;
  reg.add("bytes", 10.0, {{"kind", "host"}, {"dir", "tx"}});
  reg.add("bytes", 5.0, {{"dir", "tx"}, {"kind", "host"}});
  EXPECT_DOUBLE_EQ(reg.value("bytes", {{"kind", "host"}, {"dir", "tx"}}),
                   15.0);
  // A different label value is a different series.
  reg.add("bytes", 100.0, {{"kind", "host"}, {"dir", "rx"}});
  EXPECT_DOUBLE_EQ(reg.value("bytes", {{"dir", "rx"}, {"kind", "host"}}),
                   100.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, GaugeTracksPeak) {
  MetricsRegistry reg;
  reg.set("depth", 3.0);
  reg.set("depth", 9.0);
  reg.set("depth", 2.0);
  EXPECT_DOUBLE_EQ(reg.value("depth"), 2.0);
  EXPECT_DOUBLE_EQ(reg.peak("depth"), 9.0);
}

TEST(MetricsRegistry, HistogramObservations) {
  MetricsRegistry reg;
  for (double v : {1.0, 2.0, 3.0, 4.0}) reg.observe("wait", v);
  const Metric* metric = reg.find("wait");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, MetricKind::Histogram);
  EXPECT_EQ(metric->samples.count(), 4u);
  EXPECT_DOUBLE_EQ(metric->samples.mean(), 2.5);
  EXPECT_DOUBLE_EQ(metric->samples.median(), 2.5);
}

TEST(MetricsRegistry, AllIsSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.add("zz", 1.0);
  reg.add("aa", 1.0);
  reg.add("mm", 1.0, {{"x", "1"}});
  const auto rows = reg.all();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0]->name, "aa");
  EXPECT_EQ(rows[1]->name, "mm");
  EXPECT_EQ(rows[2]->name, "zz");
}

TEST(MetricsRegistry, HandleWritesEqualStringKeyedWrites) {
  MetricsRegistry by_string;
  MetricsRegistry by_handle;
  const Labels labels{{"kind", "host"}, {"dir", "tx"}};
  Metric& counter = by_handle.counter("bytes", labels);
  Metric& gauge = by_handle.gauge("depth");
  Metric& hist = by_handle.histogram("wait");
  for (const double v : {3.0, 9.0, 2.0, 0.5, 7.25}) {
    by_string.add("bytes", v, labels);
    counter.add(v);
    by_string.set("depth", v);
    gauge.set(v);
    by_string.observe("wait", v);
    hist.observe(v);
  }
  // The handle IS the series the string-keyed lookup finds.
  EXPECT_EQ(&counter,
            by_handle.find("bytes", {{"dir", "tx"}, {"kind", "host"}}));
  EXPECT_EQ(by_handle.value("bytes", labels),
            by_string.value("bytes", labels));
  EXPECT_EQ(by_handle.value("depth"), by_string.value("depth"));
  EXPECT_EQ(by_handle.peak("depth"), by_string.peak("depth"));
  EXPECT_EQ(by_handle.peak("depth"), 9.0);
  EXPECT_EQ(by_handle.find("wait")->samples.values(),
            by_string.find("wait")->samples.values());
  // A handle survives later inserts (map nodes never move).
  for (int i = 0; i < 1000; ++i)
    by_handle.add("filler." + std::to_string(i), 1.0);
  counter.add(1.0);
  EXPECT_EQ(by_handle.value("bytes", labels),
            by_string.value("bytes", labels) + 1.0);
}

TEST(MetricsRegistry, SeriesAbsentUntilFirstWrite) {
  simkit::Simulator sim;
  net::Fabric fabric(sim);
  const net::HostId a = fabric.add_host(gbit_per_s(10));
  const net::HostId b = fabric.add_host(gbit_per_s(10));
  const auto& metrics = sim.telemetry().metrics();
  EXPECT_EQ(metrics.size(), 0u);
  // Fabric's lazily resolved handles create nothing until they write.
  fabric.transfer(a, b, kib(64), [] {});
  EXPECT_NE(metrics.find("net.active_flows"), nullptr);
  EXPECT_DOUBLE_EQ(metrics.value("net.transfers", {{"kind", "host"}}), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value("net.bytes", {{"kind", "host"}}),
                   static_cast<double>(kib(64)));
  EXPECT_EQ(metrics.find("net.transfers", {{"kind", "to_port"}}), nullptr);
  EXPECT_EQ(metrics.find("net.bytes", {{"kind", "from_port"}}), nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.peak("net.active_flows"), 1.0);
}

TEST(MetricsRegistry, AllIsIdenticalForMixedHandleAndStringWrites) {
  MetricsRegistry strings;
  MetricsRegistry mixed;
  Metric* flows = nullptr;  // resolved on first write, like the hot sites
  for (int i = 0; i < 50; ++i) {
    const double v = 0.5 * i;
    const Labels kind{{"kind", i % 3 == 0 ? "host" : "to_port"}};
    strings.add("net.transfers", 1.0, kind);
    strings.set("net.active_flows", i % 7);
    strings.observe("serve.latency", v);
    mixed.counter("net.transfers", kind).add(1.0);
    if (!flows) flows = &mixed.gauge("net.active_flows");
    flows->set(i % 7);
    if (i % 2)
      mixed.observe("serve.latency", v);
    else
      mixed.histogram("serve.latency").observe(v);
  }
  const auto a = strings.all();
  const auto b = mixed.all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->name, b[i]->name);
    EXPECT_EQ(a[i]->kind, b[i]->kind);
    ASSERT_EQ(a[i]->labels.size(), b[i]->labels.size());
    for (std::size_t j = 0; j < a[i]->labels.size(); ++j) {
      EXPECT_EQ(a[i]->labels[j].key, b[i]->labels[j].key);
      EXPECT_EQ(a[i]->labels[j].value, b[i]->labels[j].value);
    }
    EXPECT_EQ(a[i]->value, b[i]->value) << a[i]->name;
    EXPECT_EQ(a[i]->peak, b[i]->peak) << a[i]->name;
    EXPECT_EQ(a[i]->samples.values(), b[i]->samples.values()) << a[i]->name;
  }
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Spans, DisabledTracerEmitsNothing) {
  double clock = 1.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<InMemorySink>();
  tel.add_sink(sink);
  ASSERT_FALSE(tel.enabled());
  const SpanId id = tel.begin_span("work");
  EXPECT_EQ(id, kNoSpan);
  tel.end_span(id);
  tel.record_span("pre", 0.0, 1.0);
  EXPECT_TRUE(sink->spans().empty());
  EXPECT_EQ(tel.open_spans(), 0u);
  // Metrics stay live regardless of the tracing gate.
  tel.metrics().add("c", 1.0);
  EXPECT_DOUBLE_EQ(tel.metrics().value("c"), 1.0);
}

TEST(Spans, NestingDefaultsToInnermostOpen) {
  double clock = 0.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<InMemorySink>();
  tel.add_sink(sink);
  tel.set_enabled(true);

  const SpanId outer = tel.begin_span("outer");
  clock = 1.0;
  const SpanId inner = tel.begin_span("inner");
  EXPECT_EQ(tel.current_span(), inner);
  clock = 2.0;
  tel.end_span(inner);
  clock = 3.0;
  tel.end_span(outer);

  ASSERT_EQ(sink->spans().size(), 2u);
  const SpanRecord& first = sink->spans()[0];
  const SpanRecord& second = sink->spans()[1];
  EXPECT_EQ(first.name, "inner");
  EXPECT_EQ(first.parent, outer);
  EXPECT_DOUBLE_EQ(first.start, 1.0);
  EXPECT_DOUBLE_EQ(first.end, 2.0);
  EXPECT_EQ(second.name, "outer");
  EXPECT_EQ(second.parent, kNoSpan);
  EXPECT_DOUBLE_EQ(second.duration(), 3.0);
}

TEST(Spans, OutOfOrderEndsAreAllowed) {
  double clock = 0.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<InMemorySink>();
  tel.add_sink(sink);
  tel.set_enabled(true);

  const SpanId a = tel.begin_span("a");
  const SpanId b = tel.begin_span("b");
  clock = 5.0;
  tel.end_span(a);  // ends the OUTER span first
  EXPECT_EQ(tel.current_span(), b);
  tel.end_span(b);
  tel.end_span(b);  // double-end is a no-op
  ASSERT_EQ(sink->spans().size(), 2u);
  EXPECT_EQ(sink->spans()[0].name, "a");
  EXPECT_EQ(sink->spans()[1].name, "b");
}

TEST(Spans, RecordSpanNestsUnderOpenSpan) {
  double clock = 0.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<InMemorySink>();
  tel.add_sink(sink);
  tel.set_enabled(true);

  const SpanId root = tel.begin_span("root");
  tel.record_span("phase", 1.0, 2.0, {{"k", "v"}});
  tel.end_span(root);
  ASSERT_EQ(sink->spans().size(), 2u);
  EXPECT_EQ(sink->spans()[0].name, "phase");
  EXPECT_EQ(sink->spans()[0].parent, root);
  ASSERT_EQ(sink->spans()[0].labels.size(), 1u);
  EXPECT_EQ(sink->spans()[0].labels[0].key, "k");
}

TEST(Spans, ScopedSpanIsRaii) {
  double clock = 0.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<InMemorySink>();
  tel.add_sink(sink);
  tel.set_enabled(true);
  {
    ScopedSpan span(tel, "scope");
    EXPECT_EQ(tel.current_span(), span.id());
  }
  EXPECT_EQ(tel.open_spans(), 0u);
  ASSERT_EQ(sink->spans().size(), 1u);
  EXPECT_EQ(sink->spans()[0].name, "scope");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Sinks, JsonlWritesSpansAndMetrics) {
  const std::string path = "telemetry_test_out.jsonl";
  double clock = 0.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<JsonlSink>(path);
  ASSERT_TRUE(sink->ok());
  tel.add_sink(sink);
  tel.set_enabled(true);

  const SpanId id = tel.begin_span("epoch", {{"epoch", "1"}});
  clock = 0.25;
  tel.end_span(id);
  tel.metrics().add("job.epochs", 1.0);
  tel.metrics().set("nas.queue_depth", 4.0);
  tel.metrics().observe("wait", 0.5);
  tel.flush();

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"type\":\"span\",\"name\":\"epoch\""),
            std::string::npos);
  EXPECT_NE(text.find("\"labels\":{\"epoch\":\"1\"}"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"counter\",\"name\":\"job.epochs\""),
            std::string::npos);
  EXPECT_NE(text.find("\"type\":\"gauge\",\"name\":\"nas.queue_depth\""),
            std::string::npos);
  EXPECT_NE(text.find("\"peak\":4"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"histogram\",\"name\":\"wait\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Sinks, ChromeTraceWritesCompleteEvents) {
  const std::string path = "telemetry_test_trace.json";
  double clock = 0.0;
  Telemetry tel(&clock);
  auto sink = std::make_shared<ChromeTraceSink>(path, "vdc-test");
  tel.add_sink(sink);
  tel.set_enabled(true);
  tel.record_span("epoch.quiesce", 0.0, 0.040, {{"epoch", "1"}});
  tel.metrics().add("dvdc.epochs_committed", 1.0);
  tel.flush();

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"vdc-test\""), std::string::npos);
  // 0.040 sim-seconds -> 40000 trace microseconds.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\":40000.000"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(text.find("dvdc.epochs_committed"), std::string::npos);
  std::remove(path.c_str());
}

// --- end-to-end: the whole stack through JobRunner ------------------------

core::JobRunner::BackendFactory dvdc_factory(const core::ClusterConfig& cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<core::CheckpointBackend> {
    return std::make_unique<core::DvdcBackend>(
        sim, cluster, core::ProtocolConfig{}, core::RecoveryConfig{},
        core::make_workload_factory(cc));
  };
}

core::JobRunner::BackendFactory diskfull_factory(
    const core::ClusterConfig& cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<core::CheckpointBackend> {
    return std::make_unique<core::DiskFullBackend>(
        sim, cluster, core::make_workload_factory(cc));
  };
}

core::ClusterConfig small_cluster() {
  core::ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 3;
  cc.pages_per_vm = 32;
  cc.page_size = kib(1);
  cc.write_rate = 100.0;
  return cc;
}

TEST(Integration, JobRunEmitsEpochAndRecoveryPhases) {
  core::JobConfig job;
  job.total_work = minutes(30);
  job.interval = minutes(10);
  // The trace cycles, so follow the one mid-run failure with a gap the
  // run can never reach.
  job.failure_trace = {minutes(15), hours(100)};
  core::JobRunner runner(job, small_cluster(), dvdc_factory(small_cluster()));

  auto sink = std::make_shared<InMemorySink>();
  runner.sim().telemetry().set_enabled(true);
  runner.sim().telemetry().add_sink(sink);

  const core::RunResult result = runner.run();
  ASSERT_TRUE(result.finished);
  ASSERT_GE(result.epochs, 2u);
  ASSERT_GE(result.failures, 1u);
  runner.sim().telemetry().flush();

  // Every committed epoch emitted all six phases...
  const char* phases[] = {"epoch.quiesce",  "epoch.capture", "epoch.resume",
                          "epoch.exchange", "epoch.parity",  "epoch.commit"};
  for (const char* phase : phases)
    EXPECT_EQ(sink->named(phase).size(), result.epochs) << phase;
  // ...nested under one root "epoch" span each.
  const auto roots = sink->named("epoch");
  ASSERT_EQ(roots.size(), result.epochs);
  for (const char* phase : phases)
    for (const auto& span : sink->named(phase)) {
      bool under_root = false;
      for (const auto& root : roots)
        if (span.parent == root.id) under_root = true;
      EXPECT_TRUE(under_root) << phase;
    }

  // Phase durations partition the epoch: quiesce+capture == overhead and
  // the six phases together == latency, summed over all epochs.
  double overhead = 0.0, latency = 0.0;
  for (const char* phase : {"epoch.quiesce", "epoch.capture"})
    for (const auto& span : sink->named(phase)) overhead += span.duration();
  for (const char* phase : phases)
    for (const auto& span : sink->named(phase)) latency += span.duration();
  EXPECT_NEAR(overhead, result.total_overhead, 1e-9);
  EXPECT_NEAR(latency, result.checkpoint_latency_sum, 1e-9);

  // The failure produced one full recovery: detect, reconstruct, replace,
  // rollback, nested under the root "recovery" span.
  const auto recoveries = sink->named("recovery");
  ASSERT_EQ(recoveries.size(), 1u);
  for (const char* phase : {"recovery.detect", "recovery.reconstruct",
                            "recovery.replace", "recovery.rollback"}) {
    const auto spans = sink->named(phase);
    ASSERT_EQ(spans.size(), 1u) << phase;
    EXPECT_EQ(spans[0].parent, recoveries[0].id) << phase;
    EXPECT_GE(spans[0].start, recoveries[0].start) << phase;
    EXPECT_LE(spans[0].end, recoveries[0].end + 1e-9) << phase;
  }

  // The façade RunResult agrees with the registry it is derived from.
  const auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_DOUBLE_EQ(metrics.value("job.epochs"),
                   static_cast<double>(result.epochs));
  EXPECT_DOUBLE_EQ(metrics.value("job.failures"),
                   static_cast<double>(result.failures));
  EXPECT_GT(metrics.value("net.bytes", {{"kind", "host"}}), 0.0);
  EXPECT_GT(metrics.peak("dvdc.state_bytes"), 0.0);
  EXPECT_GT(result.peak_state_bytes, 0u);
}

TEST(Integration, DisabledTelemetryStillDerivesResults) {
  core::JobConfig job;
  job.total_work = minutes(20);
  job.interval = minutes(10);
  core::JobRunner runner(job, small_cluster(), dvdc_factory(small_cluster()));
  auto sink = std::make_shared<InMemorySink>();
  runner.sim().telemetry().add_sink(sink);  // tracing left disabled

  const core::RunResult result = runner.run();
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.epochs, 1u);
  EXPECT_TRUE(sink->spans().empty());  // no spans when disabled...
  // ...but the registry-backed façade still works.
  EXPECT_GT(result.total_overhead, 0.0);
  EXPECT_GT(result.bytes_shipped, 0u);
}

// --- the metric catalog documents every emitted series -------------------

/// Names in docs/OBSERVABILITY.md's "Metric catalog": every backticked
/// name in the first column of a table row — of every table, or only of
/// the one under the `### <table>` heading when `table` is given. The
/// `a.b` / `.c` shorthand expands `.c` against the previous name, to a.c.
std::set<std::string> catalogued_metric_names(const std::string& table = "") {
  std::ifstream in(std::string(VDC_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(in.good()) << "docs/OBSERVABILITY.md not found";
  std::set<std::string> names;
  bool in_catalog = false;
  bool in_table = table.empty();
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) in_catalog = line == "## Metric catalog";
    if (!table.empty() && line.rfind("### ", 0) == 0)
      in_table = line.compare(4, table.size(), table) == 0;
    if (!in_catalog || !in_table || line.rfind('|', 0) != 0) continue;
    const std::string first = line.substr(1, line.find('|', 1) - 1);
    std::string previous;
    for (std::size_t open = first.find('`'); open != std::string::npos;) {
      const std::size_t close = first.find('`', open + 1);
      if (close == std::string::npos) break;
      std::string name = first.substr(open + 1, close - open - 1);
      if (name.rfind('.', 0) == 0 && previous.find('.') != std::string::npos)
        name = previous.substr(0, previous.rfind('.')) + name;
      names.insert(name);
      previous = name;
      open = first.find('`', close + 1);
    }
  }
  return names;
}

/// Series names `runner` emitted.
std::set<std::string> emitted(core::JobRunner& runner) {
  std::set<std::string> names;
  for (const Metric* metric : runner.sim().telemetry().metrics().all())
    names.insert(metric->name);
  return names;
}

/// Series names `runner` emitted that the catalog lacks.
std::set<std::string> uncatalogued(core::JobRunner& runner,
                                   const std::set<std::string>& catalog) {
  std::set<std::string> missing;
  for (const auto& name : emitted(runner))
    if (!catalog.count(name)) missing.insert(name);
  return missing;
}

std::string joined(const std::set<std::string>& names) {
  std::string out;
  for (const auto& name : names) out += " " + name;
  return out;
}

TEST(MetricCatalog, EveryEmittedSeriesIsDocumented) {
  const std::set<std::string> catalog = catalogued_metric_names();
  ASSERT_TRUE(catalog.count("serve.latency_hist.overflow"));  // shorthand
  ASSERT_TRUE(catalog.count("nas.store.bytes"));

  // Serving under output commit, with a replicated control plane, wire-
  // true heartbeats, a lossy fabric, a node kill and a leader kill.
  core::JobConfig serve;
  serve.total_work = 30.0;
  serve.interval = 1.0;
  serve.seed = 11;
  serve.failure_schedule = failure::ScheduledFailureInjector::parse(
      "fail 10.3 3\nkill-leader at 20.6\n");
  serve.heartbeat = cluster::HeartbeatConfig{};
  net::LinkFault drop;
  drop.drop = 0.001;
  serve.ambient_link_fault = drop;
  serve.control = controlplane::ControlPlaneConfig{};
  workload::TrafficConfig tc;
  tc.mode = workload::TrafficConfig::Mode::kOpen;
  tc.clients_per_guest = 100;
  tc.request_rate = 0.5;
  tc.streams_per_guest = 2;
  tc.client_timeout = 2.0;
  tc.warmup = 1.0;
  serve.traffic = tc;
  core::ClusterConfig serve_cluster = small_cluster();
  serve_cluster.vms_per_node = 2;
  serve_cluster.pages_per_vm = 16;
  core::JobRunner serving(serve, serve_cluster, dvdc_factory(serve_cluster));
  const core::RunResult served = serving.run();
  ASSERT_TRUE(served.finished);
  EXPECT_EQ(served.failures, 2u);  // the node kill and the leader kill
  const auto& serve_metrics = serving.sim().telemetry().metrics();
  EXPECT_GE(serve_metrics.value("cp.elections"), 1.0);
  EXPECT_NE(serve_metrics.find("serve.latency"), nullptr);
  EXPECT_NE(serve_metrics.find("net.drops"), nullptr);
  const auto serve_missing = uncatalogued(serving, catalog);
  EXPECT_TRUE(serve_missing.empty())
      << "serving job series missing from docs/OBSERVABILITY.md:"
      << joined(serve_missing);

  // A batch job with Poisson-style failures and oracle detection.
  core::JobConfig batch;
  batch.total_work = minutes(30);
  batch.interval = minutes(5);
  batch.failure_trace = {minutes(12), hours(100)};
  core::JobRunner batch_runner(batch, small_cluster(),
                               dvdc_factory(small_cluster()));
  ASSERT_TRUE(batch_runner.run().finished);
  const auto batch_missing = uncatalogued(batch_runner, catalog);
  EXPECT_TRUE(batch_missing.empty())
      << "batch job series missing from docs/OBSERVABILITY.md:"
      << joined(batch_missing);

  // The same batch job on the disk-full baseline: the NAS and its disk
  // array, written every epoch and read back by the recovery.
  core::JobRunner diskfull(batch, small_cluster(),
                           diskfull_factory(small_cluster()));
  ASSERT_TRUE(diskfull.run().finished);
  const auto diskfull_missing = uncatalogued(diskfull, catalog);
  EXPECT_TRUE(diskfull_missing.empty())
      << "disk-full job series missing from docs/OBSERVABILITY.md:"
      << joined(diskfull_missing);

  // The reverse direction for the tables these jobs cover: every row is a
  // series one of them emits, so a table cannot keep rows for code that is
  // gone. Rows no scenario can reach are named here.
  const std::map<std::string, std::string> unreachable = {
      {"dvdc.epochs_aborted",
       "needs a failure to land inside an epoch's exchange window"},
      {"plan.groups_reused",
       "needs a replan over a plan whose groups lost orthogonality"},
      {"net.retransmits", "needs a stream chunk dropped or corrupted"},
      {"net.corrupt_frames", "needs a corrupting link fault"},
  };
  std::set<std::string> seen = emitted(serving);
  seen.merge(emitted(batch_runner));
  seen.merge(emitted(diskfull));
  std::set<std::string> rows;
  for (const char* table :
       {"DVDC protocol", "Simulator and planner", "Fabric and storage"}) {
    const auto table_rows = catalogued_metric_names(table);
    EXPECT_FALSE(table_rows.empty()) << "no rows under ### " << table;
    std::set<std::string> not_emitted;
    for (const auto& name : table_rows)
      if (!seen.count(name) && !unreachable.count(name))
        not_emitted.insert(name);
    EXPECT_TRUE(not_emitted.empty())
        << table << " rows no scenario emits:" << joined(not_emitted);
    rows.insert(table_rows.begin(), table_rows.end());
  }
  for (const auto& [name, why] : unreachable) {
    EXPECT_TRUE(rows.count(name)) << name << " is no longer catalogued";
    EXPECT_FALSE(seen.count(name))
        << name << " is emitted now; drop it from the allow-list";
  }
}

}  // namespace
}  // namespace vdc::telemetry
