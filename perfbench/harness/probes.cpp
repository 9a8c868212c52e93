#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "simkit/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/machine.hpp"

namespace perfbench {

using namespace vdc;

namespace {

using Clock = std::chrono::steady_clock;

/// Calls `batch()` (which reports how many units it did) until at least
/// `min_seconds` of host time passed; returns host ns per unit.
template <typename Batch>
double ns_per_unit(double min_seconds, Batch batch) {
  const Clock::time_point start = Clock::now();
  double units = 0.0;
  double elapsed = 0.0;
  do {
    units += batch();
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return units > 0.0 ? elapsed * 1e9 / units : 0.0;
}

}  // namespace

double probe_vm_ns_per_guest_s(const Workload& w, double min_seconds) {
  vm::Hypervisor hv(Rng(1));
  hv.create_vm(0, "probe", w.cluster.page_size, w.cluster.pages_per_vm,
               core::make_workload_factory(w.cluster)(0));
  const double dt = w.job.interval;
  return ns_per_unit(min_seconds, [&] {
    hv.advance_vm(0, dt);
    return dt;
  });
}

double probe_simkit_ns_per_event(std::size_t population, double min_seconds) {
  simkit::Simulator sim;
  Rng rng(2);
  constexpr double kHorizon = 1.0;
  for (std::size_t i = 0; i < std::max<std::size_t>(population, 1); ++i)
    sim.at(rng.uniform() * kHorizon, [] {});
  return ns_per_unit(min_seconds, [&] {
    constexpr int kBatch = 1024;
    for (int i = 0; i < kBatch; ++i) {
      sim.at(sim.now() + rng.uniform() * kHorizon, [] {});
      sim.step();
    }
    return static_cast<double>(kBatch);
  });
}

double probe_net_ns_per_flow_solved(std::size_t hosts, std::size_t flows,
                                    double min_seconds) {
  if (hosts < 2 || flows == 0) return 0.0;
  simkit::Simulator sim;
  net::Fabric fabric(sim);
  for (std::size_t h = 0; h < hosts; ++h) fabric.add_host(gbit_per_s(10));
  Rng rng(3);
  std::function<void()> launch = [&] {
    const auto src = static_cast<net::HostId>(rng.next() % hosts);
    auto dst = static_cast<net::HostId>(rng.next() % (hosts - 1));
    if (dst >= src) ++dst;
    const auto bytes = static_cast<Bytes>(rng.uniform(kib(64), mib(1)));
    fabric.transfer(src, dst, bytes, [&launch] { launch(); });
  };
  for (std::size_t f = 0; f < flows; ++f) launch();
  const net::FlowNetwork& network = fabric.network();
  return ns_per_unit(min_seconds, [&] {
    const auto before = network.solver_flows_solved();
    for (int i = 0; i < 256; ++i) sim.step();
    return static_cast<double>(network.solver_flows_solved() - before);
  });
}

double probe_telemetry_ns_per_write(std::size_t series, std::size_t arity,
                                    double min_seconds) {
  // Counters and a few histograms, as in a run: every counter series gets
  // `arity` labels, the first of which makes it distinct.
  struct Series {
    std::string name;
    telemetry::Labels labels;
  };
  const std::size_t total = std::max<std::size_t>(series, 2);
  const std::size_t hists = std::max<std::size_t>(total / 16, 1);
  std::vector<Series> all;
  for (std::size_t i = 0; i < total; ++i) {
    Series s;
    const bool hist = i < hists;
    s.name = hist ? "probe.hist." : "probe.count.";
    s.name += std::to_string(arity == 0 ? i : i % 32);
    for (std::size_t k = 0; k < arity; ++k) {
      telemetry::Label label;
      label.key = "k";
      label.key += std::to_string(k);
      label.value = k == 0 ? std::to_string(i) : std::string("v");
      s.labels.push_back(std::move(label));
    }
    all.push_back(std::move(s));
  }
  telemetry::MetricsRegistry registry;
  for (std::size_t i = 0; i < total; ++i) {
    if (i < hists)
      registry.observe(all[i].name, 0.0, all[i].labels);
    else
      registry.add(all[i].name, 1.0, all[i].labels);
  }
  std::size_t next = 0;
  return ns_per_unit(min_seconds, [&] {
    constexpr int kBatch = 1024;
    for (int i = 0; i < kBatch; ++i) {
      const Series& s = all[next];
      if (next < hists)
        registry.observe(s.name, 1.0, s.labels);
      else
        registry.add(s.name, 1.0, s.labels);
      next = (next + 7919) % total;
    }
    return static_cast<double>(kBatch);
  });
}

}  // namespace perfbench
