#pragma once
// Shared helpers for the benchmark/figure harnesses: aligned table output,
// human-readable units, and opt-in trace capture (--trace=PREFIX) that
// dumps one Chrome trace-event file per instrumented run, loadable in
// chrome://tracing or Perfetto.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/units.hpp"
#include "simkit/simulator.hpp"
#include "telemetry/sinks.hpp"

namespace vdc::bench {

/// Where (and whether) to dump per-run traces. Disabled unless the binary
/// got `--trace=PREFIX`; each attached run then writes
/// `PREFIX-<label>.json`.
class TraceSpec {
 public:
  static TraceSpec from_args(int argc, char** argv) {
    TraceSpec spec;
    for (int i = 1; i < argc; ++i)
      if (std::strncmp(argv[i], "--trace=", 8) == 0) spec.prefix_ = argv[i] + 8;
    return spec;
  }

  bool enabled() const { return !prefix_.empty(); }

  /// Enable span tracing on `sim` and attach a Chrome trace sink writing to
  /// `PREFIX-<label>.json`. Returns nullptr when tracing is off. Call
  /// `sim.telemetry().flush()` after the run to write the file (the sink
  /// also writes on destruction as a fallback).
  std::shared_ptr<telemetry::ChromeTraceSink> attach(
      simkit::Simulator& sim, const std::string& label) const {
    if (!enabled()) return nullptr;
    auto sink = std::make_shared<telemetry::ChromeTraceSink>(
        prefix_ + "-" + label + ".json", label);
    sim.telemetry().set_enabled(true);
    sim.telemetry().add_sink(sink);
    return sink;
  }

 private:
  std::string prefix_;
};

inline void banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("================================================================\n");
}

inline std::string fmt_time(SimTime t) {
  char buf[64];
  if (t < 1e-3)
    std::snprintf(buf, sizeof buf, "%.1f us", t * 1e6);
  else if (t < 1.0)
    std::snprintf(buf, sizeof buf, "%.2f ms", t * 1e3);
  else if (t < 120.0)
    std::snprintf(buf, sizeof buf, "%.2f s", t);
  else if (t < 2.0 * 3600.0)
    std::snprintf(buf, sizeof buf, "%.1f min", t / 60.0);
  else
    std::snprintf(buf, sizeof buf, "%.2f h", t / 3600.0);
  return buf;
}

inline std::string fmt_bytes(double b) {
  char buf[64];
  if (b < 1024.0)
    std::snprintf(buf, sizeof buf, "%.0f B", b);
  else if (b < 1024.0 * 1024.0)
    std::snprintf(buf, sizeof buf, "%.1f KiB", b / 1024.0);
  else if (b < 1024.0 * 1024.0 * 1024.0)
    std::snprintf(buf, sizeof buf, "%.1f MiB", b / (1024.0 * 1024.0));
  else
    std::snprintf(buf, sizeof buf, "%.2f GiB",
                  b / (1024.0 * 1024.0 * 1024.0));
  return buf;
}

inline std::string fmt_rate(double bytes_per_sec) {
  return fmt_bytes(bytes_per_sec) + "/s";
}

}  // namespace vdc::bench
