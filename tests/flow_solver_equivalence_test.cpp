// Flow-solver equivalence, two contracts:
//
// - The component-local incremental re-solve must be bit-for-bit
//   identical to a full from-scratch pass (oracle_rates()), after every
//   mutation and at every start and completion of a timed schedule, on
//   adversarial topologies. Both go through the production
//   solve_component(), so these tests catch bookkeeping rot (stale
//   adjacency, missed dirty marks, component under-collection).
// - The production solve itself must stay bit-for-bit identical to the
//   original water-filling loop, kept below verbatim as
//   reference_water_fill() (only its two data reads are adapted: a flow's
//   path and a port's capacity). That pins every optimisation of the
//   solver to the exact float ops of the original.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "net/flow_network.hpp"
#include "simkit/simulator.hpp"

namespace vdc::net {
namespace {

// ---------------------------------------------------------------------------
// The reference solver: the original FlowNetwork::solve_component.

constexpr double kShareFloorFraction = 1e-9;
constexpr double kAbsoluteRateFloor = 1e-300;

double floored_share(double residual, std::uint32_t unfixed, double cap) {
  const double share = residual / unfixed;
  const double floor = std::max(cap * kShareFloorFraction,
                                kAbsoluteRateFloor);
  return std::max(share, floor);
}

using Paths = std::map<FlowId, std::vector<PortId>>;

std::vector<Rate> reference_water_fill(const std::vector<FlowId>& ids,
                                       const Paths& paths,
                                       const std::vector<Rate>& caps) {
  std::vector<PortId> cports;
  for (FlowId id : ids)
    for (PortId p : paths.at(id)) cports.push_back(p);
  std::sort(cports.begin(), cports.end());
  cports.erase(std::unique(cports.begin(), cports.end()), cports.end());
  const auto local = [&](PortId p) {
    return static_cast<std::size_t>(
        std::lower_bound(cports.begin(), cports.end(), p) - cports.begin());
  };

  std::vector<double> residual(cports.size());
  std::vector<std::uint32_t> unfixed(cports.size(), 0);
  for (std::size_t i = 0; i < cports.size(); ++i)
    residual[i] = caps[cports[i]];
  for (FlowId id : ids)
    for (PortId p : paths.at(id)) ++unfixed[local(p)];

  std::vector<char> fixed(ids.size(), 0);
  std::vector<Rate> rates(ids.size(), 0.0);
  std::size_t remaining_flows = ids.size();
  while (remaining_flows > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cports.size(); ++i) {
      if (unfixed[i] == 0) continue;
      const double share =
          floored_share(residual[i], unfixed[i], caps[cports[i]]);
      best_share = std::min(best_share, share);
    }
    EXPECT_TRUE(std::isfinite(best_share));
    EXPECT_GT(best_share, 0.0);

    bool froze_any = false;
    for (std::size_t fi = 0; fi < ids.size(); ++fi) {
      if (fixed[fi]) continue;
      const std::vector<PortId>& path = paths.at(ids[fi]);
      bool bottlenecked = false;
      for (PortId p : path) {
        const std::size_t i = local(p);
        const double share =
            floored_share(residual[i], unfixed[i], caps[cports[i]]);
        if (share <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rates[fi] = best_share;
      fixed[fi] = 1;
      froze_any = true;
      --remaining_flows;
      for (PortId p : path) {
        const std::size_t i = local(p);
        residual[i] -= best_share;
        if (residual[i] < 0.0) residual[i] = 0.0;
        --unfixed[i];
      }
    }
    if (!froze_any) {
      ADD_FAILURE() << "reference water-filling made no progress";
      break;
    }
  }
  return rates;
}

// A FlowNetwork plus a side record of every port capacity and flow path,
// so the reference can re-derive the components and their rates.
struct Tracked {
  simkit::Simulator sim;
  FlowNetwork fn{sim};
  std::vector<Rate> caps;
  Paths paths;

  PortId add_port(Rate cap) {
    caps.push_back(cap);
    return fn.add_port(cap);
  }
  FlowId start(std::vector<PortId> path, Bytes bytes) {
    const FlowId id = fn.start_flow(path, bytes, [] {});
    paths.emplace(id, std::move(path));
    return id;
  }
  void cancel(FlowId id) {
    fn.cancel_flow(id);
    paths.erase(id);
  }
  void set_capacity(PortId port, Rate cap) {
    caps[port] = cap;
    fn.set_capacity(port, cap);
  }
  void run_until(SimTime t) {
    sim.run_until(t);
    for (auto it = paths.begin(); it != paths.end();)
      it = fn.flow_rate(it->first) > 0.0 ? std::next(it) : paths.erase(it);
  }

  // Every active flow's live rate equals the reference solve of its
  // component, bitwise. Returns the largest component size seen.
  std::size_t expect_matches_reference(const char* where) const {
    EXPECT_EQ(fn.active_flows(), paths.size()) << where;
    std::map<PortId, std::vector<FlowId>> on_port;
    for (const auto& [id, path] : paths)
      for (PortId p : path) on_port[p].push_back(id);
    std::set<FlowId> seen;
    std::size_t largest = 0;
    for (const auto& [seed, unused] : paths) {
      if (!seen.insert(seed).second) continue;
      std::vector<FlowId> component;
      std::vector<FlowId> stack{seed};
      while (!stack.empty()) {
        const FlowId id = stack.back();
        stack.pop_back();
        component.push_back(id);
        for (PortId p : paths.at(id))
          for (FlowId other : on_port[p])
            if (seen.insert(other).second) stack.push_back(other);
      }
      std::sort(component.begin(), component.end());
      largest = std::max(largest, component.size());
      const auto rates = reference_water_fill(component, paths, caps);
      for (std::size_t i = 0; i < component.size(); ++i) {
        EXPECT_GT(rates[i], 0.0) << where;
        if (fn.flow_rate(component[i]) != rates[i]) {
          ADD_FAILURE() << where << ": flow " << component[i] << " rate "
                        << fn.flow_rate(component[i]) << " != reference "
                        << rates[i];
          return largest;
        }
      }
    }
    return largest;
  }
};

void expect_rates_match_oracle(FlowNetwork& fn, const char* where) {
  const auto oracle = fn.oracle_rates();
  for (const auto& [id, rate] : oracle) {
    // Bitwise equality, not EXPECT_NEAR: the incremental path must run the
    // exact float ops the full solve runs.
    ASSERT_EQ(fn.flow_rate(id), rate) << where << " flow " << id;
  }
}

// Random starts/cancels/capacity changes over a clustered topology chosen
// to produce many small components plus occasional giant ones; the live
// rates must match the oracle bitwise after every operation.
TEST(FlowSolverEquivalence, RandomizedOpsMatchOracleBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(seed);

    constexpr int kPorts = 24;
    std::vector<PortId> ports;
    for (int i = 0; i < kPorts; ++i)
      ports.push_back(fn.add_port(rng.uniform(10.0, 500.0)));

    std::vector<FlowId> live;
    for (int op = 0; op < 400; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.55 || live.empty()) {
        // Start a flow: usually within one cluster of 4 ports (small
        // components), sometimes spanning clusters (merges them).
        const int cluster = static_cast<int>(rng.uniform_u64(kPorts / 4)) * 4;
        std::vector<PortId> path{ports[cluster + rng.uniform_u64(4)]};
        const PortId second = rng.uniform() < 0.2
                                  ? ports[rng.uniform_u64(kPorts)]
                                  : ports[cluster + rng.uniform_u64(4)];
        if (second != path[0]) path.push_back(second);
        live.push_back(
            fn.start_flow(std::move(path), 1 + rng.uniform_u64(1u << 20),
                          [] {}));
      } else if (roll < 0.85) {
        const std::size_t victim = rng.uniform_u64(live.size());
        fn.cancel_flow(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        fn.set_capacity(ports[rng.uniform_u64(kPorts)],
                        rng.uniform(10.0, 500.0));
      }
      // Let a little sim time pass so settles and completions interleave.
      if (rng.chance(0.3)) {
        const double horizon = sim.now() + rng.uniform(0.0, 5.0);
        sim.run_until(horizon);
        // Drop ids whose flows completed meanwhile.
        std::vector<FlowId> still;
        for (FlowId id : live)
          if (fn.flow_rate(id) > 0.0) still.push_back(id);
        live.swap(still);
      }
      expect_rates_match_oracle(fn, "after op");
    }
  }
}

// A timed schedule — flows arriving over time, some after a head
// latency, completing and re-solving as they go: the live rates must
// match the oracle bitwise at every start and every completion callback,
// and the incremental solver must do less rate work than a full re-solve
// of every active flow at each population change would.
TEST(FlowSolverEquivalence, TimedScheduleMatchesOracleAtEveryEvent) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(seed);
    std::vector<PortId> ports;
    for (int i = 0; i < 12; ++i)
      ports.push_back(fn.add_port(rng.uniform(20.0, 200.0)));

    // The count hook fires after every population change, once the
    // change has been solved; a full solve would redo every active flow.
    std::uint64_t full_work = 0;
    std::size_t population = 0;
    fn.set_count_hook([&] {
      if (fn.active_flows() != population) full_work += fn.active_flows();
      population = fn.active_flows();
    });

    std::size_t completions = 0;
    for (int i = 0; i < 120; ++i) {
      const double at = rng.uniform(0.0, 50.0);
      const PortId a = ports[rng.uniform_u64(ports.size())];
      const PortId b = ports[rng.uniform_u64(ports.size())];
      const Bytes bytes = 1 + rng.uniform_u64(1u << 18);
      const double latency = rng.chance(0.25) ? rng.uniform(0.0, 2.0) : 0.0;
      sim.at(at, [&, a, b, bytes, latency] {
        std::vector<PortId> path{a};
        if (b != a) path.push_back(b);
        fn.start_flow(
            std::move(path), bytes,
            [&] {
              ++completions;
              expect_rates_match_oracle(fn, "completion");
            },
            latency);
        expect_rates_match_oracle(fn, "start");
      });
    }
    sim.run();
    if (HasFailure()) return;
    EXPECT_EQ(completions, 120u) << "seed " << seed;
    EXPECT_EQ(fn.active_flows(), 0u) << "seed " << seed;
    // The point of the incremental solver: far fewer flows re-solved for
    // the same answer.
    EXPECT_GT(fn.solver_flows_solved(), 0u) << "seed " << seed;
    EXPECT_LT(fn.solver_flows_solved(), full_work) << "seed " << seed;
  }
}

// Disjoint components: touching one must not re-solve the other (the
// O(component) cost claim), and must not perturb its rates.
TEST(FlowSolverEquivalence, DisjointComponentsAreNotResolved) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId a = fn.add_port(100.0);
  const PortId b = fn.add_port(100.0);
  fn.start_flow({a}, 1u << 30, [] {});
  const FlowId fa2 = fn.start_flow({a}, 1u << 30, [] {});
  const std::uint64_t flows_before = fn.solver_flows_solved();

  // Start and cancel traffic on the unrelated port b.
  const FlowId fb = fn.start_flow({b}, 1u << 30, [] {});
  const double rate_a = fn.flow_rate(fa2);
  fn.cancel_flow(fb);
  EXPECT_EQ(fn.flow_rate(fa2), rate_a);
  EXPECT_EQ(fn.flow_rate(fa2), 50.0);
  // Only {fb}'s singleton component was solved by the two ops.
  EXPECT_EQ(fn.solver_flows_solved(), flows_before + 1);
  expect_rates_match_oracle(fn, "after disjoint ops");
}

// Random starts/cancels/capacity changes on paths of one to three ports,
// diffed against the reference solve after every operation.
TEST(FlowSolverReference, RandomizedComponentsMatchBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Tracked t;
    Rng rng(seed);
    constexpr int kPorts = 30;
    std::vector<PortId> ports;
    for (int i = 0; i < kPorts; ++i)
      ports.push_back(t.add_port(rng.uniform(10.0, 500.0)));
    std::vector<FlowId> live;
    for (int op = 0; op < 300; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.6 || live.empty()) {
        std::vector<PortId> path;
        const std::size_t hops = 1 + rng.uniform_u64(3);
        for (std::size_t h = 0; h < hops; ++h)
          path.push_back(ports[rng.uniform_u64(kPorts)]);
        live.push_back(
            t.start(std::move(path), 1 + rng.uniform_u64(1u << 20)));
      } else if (roll < 0.85) {
        const std::size_t victim = rng.uniform_u64(live.size());
        if (t.paths.count(live[victim])) t.cancel(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        t.set_capacity(ports[rng.uniform_u64(kPorts)],
                       rng.uniform(10.0, 500.0));
      }
      if (rng.chance(0.3)) t.run_until(t.sim.now() + rng.uniform(0.0, 5.0));
      t.expect_matches_reference("randomized op");
      if (HasFailure()) return;
    }
  }
}

// The rebuild_rs shape: 64 hosts, each a {tx, rx} NIC pair, and a fan-in
// of 256-512 flows whose {tx, rx} paths chain into one component. Start
// and cancel churn, plus NIC degradation, against the reference.
TEST(FlowSolverReference, RebuildFanInComponentMatchesBitwise) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Tracked t;
    Rng rng(seed);
    constexpr int kHosts = 64;
    std::vector<PortId> tx, rx;
    for (int h = 0; h < kHosts; ++h) {
      tx.push_back(t.add_port(1.25e9));
      rx.push_back(t.add_port(1.25e9));
    }
    std::vector<FlowId> live;
    const auto start_one = [&] {
      const std::size_t src = rng.uniform_u64(kHosts);
      std::size_t dst = rng.uniform_u64(kHosts - 1);
      if (dst >= src) ++dst;
      live.push_back(t.start({tx[src], rx[dst]},
                             (1u << 20) + rng.uniform_u64(1u << 24)));
    };
    const std::size_t target = 256 + rng.uniform_u64(257);
    while (live.size() < target) start_one();
    std::size_t largest = t.expect_matches_reference("fan-in built");
    EXPECT_GE(largest, 256u);
    for (int op = 0; op < 60; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.45) {
        start_one();
      } else if (roll < 0.9) {
        const std::size_t victim = rng.uniform_u64(live.size());
        if (t.paths.count(live[victim])) t.cancel(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const std::size_t h = rng.uniform_u64(kHosts);
        t.set_capacity(rng.chance(0.5) ? tx[h] : rx[h],
                       rng.uniform(1.0e8, 1.25e9));
      }
      if (rng.chance(0.2)) t.run_until(t.sim.now() + rng.uniform(0.0, 0.01));
      largest = std::max(largest, t.expect_matches_reference("fan-in op"));
      if (HasFailure()) return;
    }
    EXPECT_GE(largest, 256u);
  }
}

// Rack paths: {tx, rack uplink, rx} for cross-rack flows, {tx, rx} for
// rack-local ones, with uplinks narrower than the NICs.
TEST(FlowSolverReference, RackPathsMatchBitwise) {
  Tracked t;
  Rng rng(11);
  constexpr int kRacks = 4, kPerRack = 8;
  std::vector<PortId> tx, rx, uplink;
  for (int r = 0; r < kRacks; ++r) uplink.push_back(t.add_port(2.5e9));
  for (int h = 0; h < kRacks * kPerRack; ++h) {
    tx.push_back(t.add_port(1.25e9));
    rx.push_back(t.add_port(1.25e9));
  }
  for (int op = 0; op < 200; ++op) {
    const std::size_t src = rng.uniform_u64(kRacks * kPerRack);
    const std::size_t dst = rng.uniform_u64(kRacks * kPerRack);
    if (src == dst) continue;
    std::vector<PortId> path{tx[src]};
    if (src / kPerRack != dst / kPerRack)
      path.push_back(uplink[src / kPerRack]);
    path.push_back(rx[dst]);
    t.start(std::move(path), (1u << 16) + rng.uniform_u64(1u << 22));
    if (rng.chance(0.1))
      t.set_capacity(uplink[rng.uniform_u64(kRacks)], rng.uniform(5e8, 5e9));
    if (rng.chance(0.25)) t.run_until(t.sim.now() + rng.uniform(0.0, 0.002));
    t.expect_matches_reference("rack op");
    if (HasFailure()) return;
  }
}

// Floor edge cases: denormal capacities, whose shares underflow and must
// take the absolute floor, and capacities spanning the double range, so
// the kShareFloorFraction term dominates the absolute one. Mixed paths
// put both kinds of floor into one component.
TEST(FlowSolverReference, ShareFloorEdgeCasesMatchBitwise) {
  Tracked t;
  const PortId denorm_min =
      t.add_port(std::numeric_limits<double>::denorm_min());
  const PortId denorm = t.add_port(1e-310);
  const PortId tiny = t.add_port(1e-295);
  const PortId small = t.add_port(1e-200);
  const PortId unit = t.add_port(1.0);
  const PortId huge = t.add_port(1e300);
  const std::vector<PortId> all{denorm_min, denorm, tiny, small, unit, huge};
  for (PortId p : all) {
    t.start({p}, 1000);
    t.start({p}, 1000);
    t.start({p}, 1000);
  }
  t.expect_matches_reference("single-port floors");
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      t.start({all[i], all[j]}, 1000);
  t.expect_matches_reference("mixed floors");
  t.start({denorm_min, denorm, huge}, 1000);
  t.set_capacity(unit, 1e-305);
  t.expect_matches_reference("after capacity drop");
  t.set_capacity(denorm_min, 1e-320);
  t.set_capacity(huge, std::numeric_limits<double>::max());
  t.expect_matches_reference("after capacity change");
}

// Near-ties: port shares within a few 1e-13 of each other straddle the
// solver's 1e-12 saturation tolerance. Which flows freeze in a round then
// depends on the tolerance and on the mid-round share updates, i.e. on
// the order flows are visited; the reference pins both.
TEST(FlowSolverReference, NearTieToleranceMatchesBitwise) {
  Tracked t;
  std::vector<PortId> ports;
  for (int k = 0; k < 9; ++k)
    ports.push_back(t.add_port(1000.0 * (1.0 + k * 2.5e-13)));
  for (int round = 0; round < 6; ++round)
    for (std::size_t k = 0; k < ports.size(); ++k)
      t.start({ports[k]}, 1u << 20);
  for (std::size_t k = 0; k + 1 < ports.size(); k += 2)
    t.start({ports[k], ports[k + 1]}, 1u << 20);
  t.expect_matches_reference("near ties");
  // Distinct rates prove the tolerance split the ports into rounds.
  std::set<Rate> rates;
  for (const auto& [id, path] : t.paths) rates.insert(t.fn.flow_rate(id));
  EXPECT_GT(rates.size(), 1u);
  t.set_capacity(ports[4], 1000.0 * (1.0 + 9e-13));
  t.expect_matches_reference("near ties after capacity change");
}

}  // namespace
}  // namespace vdc::net
