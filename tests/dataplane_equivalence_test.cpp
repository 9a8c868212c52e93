// Byte-exactness contract for the epoch data plane. The coordinator's
// dirty-page zero-copy plane (page-sharing store, in-place undo-logged
// parity folds, fold-from-wire ingest, pooled kernels) runs a randomized
// schedule — guest execution, committed epochs, aborted epochs, node
// failures with recovery — and after every step it is held to the
// flatten + diff_images oracle of dataplane_oracle.hpp:
//
//   - every committed checkpoint payload equals its image flattened just
//     before run_epoch;
//   - every parity record equals a fresh encode of the committed payloads
//     padded to its block size, with the planned members, holders and
//     epoch;
//   - EpochStats byte accounting equals diff_images + compress_delta per
//     member and holder on incremental groups, the flat (or RLE) image on
//     full-exchange groups;
//   - an aborted epoch leaves the committed epoch, payloads, parity and
//     images exactly as they were, and every page that differs from its
//     committed payload is in the dirty log again;
//   - after a recovery every VM's image equals its committed payload;
//   - DvdcState::memory_bytes() net of patch overlays equals a recount of
//     the stores' distinct page buffers plus the parity blocks.
//
// Seeds: 1..VDC_FUZZ_SEEDS (default 4); schemes: RAID-5, RDP, RS; plain,
// chunked and lossy-fabric exchange. A chunked and an unchunked harness
// are also diffed against each other.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <set>
#include <string>

#include "core/recovery.hpp"
#include "dataplane_oracle.hpp"
#include "net/fault.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

int fuzz_seed_count() {
  if (const char* env = std::getenv("VDC_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4;
}

WorkloadFactory workload_factory() {
  return [](vm::VmId) -> std::unique_ptr<vm::Workload> {
    return std::make_unique<vm::HotColdWorkload>(200.0, 0.2, 0.8);
  };
}

bool same_record(const DvdcState::ParityRecord& a,
                 const DvdcState::ParityRecord& b) {
  return a.epoch == b.epoch && a.scheme == b.scheme &&
         a.members == b.members && a.holders == b.holders &&
         a.blocks == b.blocks && a.block_size == b.block_size;
}

struct Harness {
  simkit::Simulator sim;
  cluster::ClusterManager cluster;
  DvdcState state;
  DvdcCoordinator coord;
  RecoveryManager recovery;
  std::optional<PlacedPlan> placed;
  std::optional<PlacedPlan> committed_plan;
  std::set<GroupId> groups_seen;  // every group id any plan has used
  std::vector<vm::VmId> vms;
  checkpoint::Epoch next_epoch = 1;
  ParityScheme scheme;
  std::string where;  // context for failure messages
  std::size_t commits = 0;  // epochs held to the commit oracle

  Harness(std::uint64_t seed, ParityScheme scheme,
          net::ChunkPolicy chunking = {})
      : cluster(sim, Rng(seed)),
        coord(sim, cluster, state, make_config(scheme, chunking)),
        recovery(sim, cluster, state, workload_factory(),
                 make_recovery_config(chunking)),
        scheme(scheme) {
    for (int n = 0; n < 5; ++n) cluster.add_node();
    auto workloads = workload_factory();
    for (int n = 0; n < 5; ++n)
      for (int v = 0; v < 2; ++v)
        cluster.boot_vm(n, kib(1), 16, workloads(0));
    vms = cluster.all_vms();
    replan();
  }

  static ProtocolConfig make_config(ParityScheme scheme,
                                    net::ChunkPolicy chunking) {
    ProtocolConfig config;
    config.scheme = scheme;
    config.rs_parity = 2;
    config.chunking = chunking;
    return config;
  }

  static RecoveryConfig make_recovery_config(net::ChunkPolicy chunking) {
    RecoveryConfig config;
    config.chunking = chunking;
    return config;
  }

  void replan() {
    PlannerConfig pc;
    pc.group_size = 3;
    placed = PlacedPlan::make(GroupPlanner(pc).plan(cluster), cluster,
                              scheme, 2);
    for (const auto& group : placed->plan.groups) groups_seen.insert(group.id);
  }

  void ensure_plan() {
    if (!placed->still_orthogonal(cluster)) replan();
  }

  oracle::Snapshot snapshot() {
    return oracle::Snapshot::take(cluster, state, groups_seen);
  }

  /// Run one epoch. With `abort_when`, step the simulator until it holds
  /// (it sees the pre-epoch snapshot) and abort the epoch there, unless
  /// the epoch finished first; without, run the epoch to its end.
  std::optional<EpochStats> epoch(
      const std::function<bool(const oracle::Snapshot&)>& abort_when) {
    ensure_plan();
    const oracle::Snapshot before = snapshot();
    std::optional<EpochStats> stats;
    coord.run_epoch(*placed, next_epoch,
                    [&](const EpochStats& s) { stats = s; });
    if (abort_when) {
      while (!stats.has_value() && !abort_when(before) && sim.step()) {
      }
      if (!stats.has_value()) coord.abort();
    }
    sim.run();
    settle(before, stats);
    return stats;
  }

  /// Run one epoch; with `abort_after` > 0, abort after that many events.
  std::optional<EpochStats> checkpoint(std::uint64_t abort_after) {
    if (abort_after == 0) return epoch(nullptr);
    return epoch([n = std::uint64_t{0}, abort_after](
                     const oracle::Snapshot&) mutable {
      return n++ == abort_after;
    });
  }

  /// Run one epoch and abort it the moment the exchange puts its first
  /// flow on the wire (guaranteed pre-commit, so two harnesses with
  /// different network timing abort the same logical epoch). Returns the
  /// stats only in the (impossible today) case the epoch committed first.
  std::optional<EpochStats> checkpoint_abort_mid_exchange() {
    return epoch([this](const oracle::Snapshot&) {
      return sim.telemetry().metrics().value("net.active_flows") != 0.0;
    });
  }

  /// Run one epoch and abort it right after the first fold-from-wire
  /// chunk lands in a standing parity block, so the abort has folds to
  /// unwind. An epoch with nothing to fold in place runs to commit.
  std::optional<EpochStats> checkpoint_abort_mid_fold() {
    return epoch([this](const oracle::Snapshot& before) {
      for (const auto& [gid, record] : before.parity) {
        const auto* now = state.parity(gid);
        if (now != nullptr && now->blocks != record.blocks) return true;
      }
      return false;
    });
  }

  bool fail_and_recover(std::size_t victim_index) {
    if (state.committed_epoch() == 0) return true;
    const oracle::Snapshot before = snapshot();
    const auto alive = cluster.alive_nodes();
    const auto victim = alive[victim_index % alive.size()];
    const auto lost = cluster.node(victim).hypervisor().vm_ids();
    cluster.kill_node(victim);
    state.drop_node(victim);
    cluster.revive_node(victim);  // repaired replacement (constant n)
    if (lost.empty()) return true;
    bool ok = false;
    recovery.recover(*committed_plan, lost,
                     [&](const RecoveryStats& s) { ok = s.success; });
    sim.run();
    if (ok) expect_rolled_back(before);
    expect_consistent();
    return ok;
  }

  /// Ambient loss on every host's NIC. The injector's Rng is seeded from a
  /// fixed constant, so a schedule replays the same drops/corruptions.
  void make_lossy() {
    auto& faults = cluster.fabric().faults();
    for (cluster::NodeId n = 0; n < 5; ++n)
      faults.set_host_fault(
          cluster.node(n).host(),
          net::LinkFault{.drop = 0.01, .corrupt = 0.001, .jitter = 200e-6});
  }

  // --- the oracle checks ----------------------------------------------------

  void settle(const oracle::Snapshot& before,
              const std::optional<EpochStats>& stats) {
    if (stats.has_value() && stats->committed) {
      expect_committed(before, *stats);
      ++next_epoch;
      committed_plan = placed;
    } else {
      expect_unchanged(before);
    }
    expect_consistent();
  }

  /// The epoch just committed: checkpoints are the pre-epoch images, every
  /// stripe is a fresh encode of them, and the byte accounting is the
  /// diff_images pipeline's.
  void expect_committed(const oracle::Snapshot& before,
                        const EpochStats& stats) {
    ++commits;
    const checkpoint::Epoch epoch = next_epoch;
    ASSERT_EQ(state.committed_epoch(), epoch) << where;
    EXPECT_EQ(stats.epoch, epoch) << where;
    EXPECT_EQ(stats.groups, placed->plan.groups.size()) << where;
    EXPECT_DOUBLE_EQ(stats.overhead, coord.config().base_overhead) << where;
    EXPECT_GE(stats.latency, stats.overhead) << where;

    const oracle::EpochBytes bytes =
        before.expected_bytes(coord.config(), *placed);
    EXPECT_EQ(stats.bytes_shipped, bytes.shipped) << where;
    EXPECT_EQ(stats.delta_bytes, bytes.delta) << where;
    EXPECT_EQ(stats.trim_bytes, bytes.trim) << where;
    EXPECT_EQ(stats.bytes_xored, bytes.xored) << where;
    EXPECT_EQ(stats.raw_dirty_bytes, bytes.raw_dirty) << where;
    EXPECT_EQ(stats.full_exchange, bytes.full_exchange) << where;
    // The full-exchange decision is per GROUP, so VDD1 traffic is a subset
    // of shipped traffic and equals it on an all-incremental epoch; the
    // per-record min(RLE, trim) choice never loses to trim-only.
    EXPECT_LE(stats.delta_bytes, stats.bytes_shipped) << where;
    EXPECT_LE(stats.delta_bytes, stats.trim_bytes) << where;
    if (!stats.full_exchange) {
      EXPECT_EQ(stats.delta_bytes, stats.bytes_shipped) << where;
    }

    for (std::size_t gi = 0; gi < placed->plan.groups.size(); ++gi) {
      const RaidGroup& group = placed->plan.groups[gi];
      std::vector<oracle::Payload> payloads;
      for (vm::VmId vmid : group.members) {
        const auto loc = cluster.locate(vmid);
        ASSERT_TRUE(loc.has_value()) << where << " vm " << vmid;
        const auto* cp = state.node_store(*loc).find(vmid, epoch);
        ASSERT_NE(cp, nullptr) << where << " vm " << vmid;
        payloads.push_back(cp->payload());
        ASSERT_EQ(payloads.back(), before.images.at(vmid))
            << where << " checkpoint of vm " << vmid;
      }
      const auto* record = state.parity(group.id);
      ASSERT_NE(record, nullptr) << where << " group " << group.id;
      EXPECT_EQ(record->epoch, epoch) << where << " group " << group.id;
      EXPECT_EQ(record->scheme, scheme) << where << " group " << group.id;
      EXPECT_EQ(record->members, group.members)
          << where << " group " << group.id;
      EXPECT_EQ(record->holders, placed->holders[gi])
          << where << " group " << group.id;
      const Bytes block_size = oracle::block_size_for(
          scheme, coord.config().rs_parity, payloads);
      ASSERT_EQ(record->block_size, block_size)
          << where << " group " << group.id;
      ASSERT_EQ(record->blocks,
                oracle::fresh_parity(scheme, coord.config().rs_parity,
                                     payloads, block_size))
          << where << " parity of group " << group.id;
    }
  }

  /// An aborted (or failed) epoch changed nothing that was committed.
  void expect_unchanged(const oracle::Snapshot& before) {
    ASSERT_EQ(state.committed_epoch(), before.committed) << where;
    const oracle::Snapshot after = snapshot();
    EXPECT_TRUE(after.images == before.images) << where << " images moved";
    EXPECT_TRUE(after.payloads == before.payloads)
        << where << " committed payloads moved";
    ASSERT_EQ(after.parity.size(), before.parity.size()) << where;
    for (const auto& [gid, record] : before.parity)
      EXPECT_TRUE(same_record(after.parity.at(gid), record))
          << where << " parity of group " << gid << " not unwound";
    for (vm::VmId vmid : vms) {
      const auto loc = cluster.locate(vmid);
      if (!loc.has_value()) continue;
      EXPECT_EQ(state.node_store(*loc).find(vmid, next_epoch), nullptr)
          << where << " aborted capture of vm " << vmid << " kept";
    }
  }

  /// A successful recovery rolled every VM back to its committed payload.
  void expect_rolled_back(const oracle::Snapshot& before) {
    ASSERT_EQ(state.committed_epoch(), before.committed) << where;
    for (vm::VmId vmid : vms) {
      const auto loc = cluster.locate(vmid);
      ASSERT_TRUE(loc.has_value()) << where << " vm " << vmid << " lost";
      const auto it = before.payloads.find(vmid);
      if (it == before.payloads.end()) continue;
      ASSERT_EQ(cluster.machine(vmid).image().flatten(), it->second)
          << where << " image of recovered vm " << vmid;
      const auto* cp = state.node_store(*loc).find(vmid, before.committed);
      ASSERT_NE(cp, nullptr) << where << " vm " << vmid;
      ASSERT_EQ(cp->payload(), it->second) << where << " vm " << vmid;
    }
  }

  /// Invariants that hold between any two steps.
  void expect_consistent() {
    const oracle::Snapshot now = snapshot();
    // The dirty log covers every page that differs from the committed
    // payload, so the next capture sees every change since the cut.
    for (const auto& [vmid, payload] : now.payloads) {
      const auto& image = now.images.at(vmid);
      const Bytes psz = now.page_size.at(vmid);
      const auto dirty_list = cluster.machine(vmid).image().dirty_pages();
      const std::set<vm::PageIndex> dirty(dirty_list.begin(),
                                          dirty_list.end());
      for (std::size_t p = 0; p * psz < image.size(); ++p) {
        const auto at = static_cast<std::ptrdiff_t>(p * psz);
        if (std::equal(image.begin() + at, image.begin() + at + psz,
                       payload.begin() + at))
          continue;
        EXPECT_TRUE(dirty.count(p)) << where << " vm " << vmid << " page "
                                    << p << " changed but is not dirty";
      }
    }
    // Every whole committed stripe is a fresh encode of its members'
    // committed payloads (blocks of a dropped holder are empty).
    for (const auto& [gid, record] : now.parity) {
      if (record.epoch != now.committed) continue;
      std::vector<oracle::Payload> payloads;
      for (vm::VmId vmid : record.members) {
        const auto it = now.payloads.find(vmid);
        if (it != now.payloads.end()) payloads.push_back(it->second);
      }
      if (payloads.size() != record.members.size()) continue;
      const auto expect = oracle::fresh_parity(
          record.scheme, coord.config().rs_parity, payloads,
          record.block_size);
      ASSERT_EQ(expect.size(), record.blocks.size()) << where;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        if (record.blocks[i].empty()) continue;
        ASSERT_EQ(record.blocks[i], expect[i])
            << where << " parity " << i << " of group " << gid;
      }
    }
    // Resident accounting: the running totals equal a recount of each
    // store's distinct page buffers plus the parity blocks.
    Bytes recount = 0;
    for (const auto& [gid, record] : now.parity)
      for (const auto& block : record.blocks) recount += block.size();
    for (cluster::NodeId n = 0; n < cluster.node_count(); ++n) {
      const auto& store = state.node_store(n);
      std::set<const void*> buffers;
      std::size_t entries = 0;
      for (vm::VmId vmid : vms) {
        for (checkpoint::Epoch e = 1; e <= next_epoch; ++e) {
          const auto* cp = store.find(vmid, e);
          if (cp == nullptr) continue;
          ++entries;
          for (const auto& page : cp->pages)
            if (buffers.insert(page.get()).second) recount += page->size();
        }
      }
      EXPECT_EQ(entries, store.entry_count()) << where << " node " << n;
    }
    EXPECT_EQ(state.memory_bytes() - state.patch_bytes(), recount) << where;
  }
};

/// Twin harnesses on the same logical schedule: identical placement,
/// images, checkpoints, parity and resident bytes.
void expect_equal_state(Harness& a, Harness& b, const std::string& where) {
  ASSERT_EQ(a.state.committed_epoch(), b.state.committed_epoch()) << where;
  ASSERT_EQ(a.state.memory_bytes() - a.state.patch_bytes(),
            b.state.memory_bytes() - b.state.patch_bytes())
      << where;
  const auto epoch = a.state.committed_epoch();

  for (vm::VmId vmid : a.cluster.all_vms()) {
    const auto la = a.cluster.locate(vmid);
    const auto lb = b.cluster.locate(vmid);
    ASSERT_EQ(la.has_value(), lb.has_value()) << where << " vm " << vmid;
    if (!la.has_value()) continue;
    ASSERT_EQ(*la, *lb) << where << " vm " << vmid;
    ASSERT_EQ(a.cluster.machine(vmid).image().flatten(),
              b.cluster.machine(vmid).image().flatten())
        << where << " image of vm " << vmid;
    const auto* ca = a.state.node_store(*la).find(vmid, epoch);
    const auto* cb = b.state.node_store(*lb).find(vmid, epoch);
    ASSERT_EQ(ca == nullptr, cb == nullptr) << where << " vm " << vmid;
    if (ca != nullptr) {
      ASSERT_EQ(ca->payload(), cb->payload())
          << where << " checkpoint of vm " << vmid;
    }
  }

  ASSERT_EQ(a.committed_plan.has_value(), b.committed_plan.has_value())
      << where;
  if (!a.committed_plan.has_value()) return;
  for (const auto& group : a.committed_plan->plan.groups) {
    const auto* ra = a.state.parity(group.id);
    const auto* rb = b.state.parity(group.id);
    ASSERT_EQ(ra == nullptr, rb == nullptr) << where << " group " << group.id;
    if (ra == nullptr) continue;
    ASSERT_TRUE(same_record(*ra, *rb))
        << where << " parity of group " << group.id;
  }
}

/// One randomized schedule against the oracle: advance the guests, then
/// commit an epoch, abort one (after a few events, or mid-fold), or fail a
/// node and recover. `lossy` puts ambient drops, corruption and jitter on
/// every host.
void run_oracle_schedule(std::uint64_t seed, std::uint64_t driver_seed,
                         net::ChunkPolicy chunking, bool lossy) {
  for (ParityScheme scheme :
       {ParityScheme::Raid5, ParityScheme::Rdp, ParityScheme::Rs}) {
    Harness h(seed, scheme, chunking);
    if (lossy) h.make_lossy();
    Rng driver(driver_seed);

    for (int step = 0; step < 10; ++step) {
      h.where = "seed " + std::to_string(seed) + " scheme " +
                std::to_string(static_cast<int>(scheme)) + " step " +
                std::to_string(step) + (lossy ? " (lossy fabric)" : "");
      h.cluster.advance_workloads(
          0.5 + 0.25 * static_cast<double>(driver.uniform_u64(4)));

      const auto op = driver.uniform_u64(5);
      if (op == 0 && h.state.committed_epoch() > 0) {
        if (driver.chance(0.5))
          h.checkpoint_abort_mid_fold();
        else
          h.checkpoint(3 + driver.uniform_u64(5));
      } else if (op == 1 && h.state.committed_epoch() > 0) {
        EXPECT_TRUE(h.fail_and_recover(driver.uniform_u64(5))) << h.where;
      } else {
        h.checkpoint(0);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The schedule exercised the oracle, not just the first epoch.
    EXPECT_GE(h.commits, 2u) << "seed " << seed;

    if (lossy) {
      const auto& metrics = h.sim.telemetry().metrics();
      EXPECT_GT(metrics.value("net.drops"), 0.0) << "seed " << seed;
      EXPECT_GT(metrics.value("net.retransmits"), 0.0) << "seed " << seed;
    }
  }
}

class DataPlaneEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DataPlaneEquivalence, MatchesOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  run_oracle_schedule(seed, seed * 977 + 13, {}, /*lossy=*/false);
}

TEST_P(DataPlaneEquivalence, ChunkedMatchesOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::ChunkPolicy chunking;
  chunking.chunk_bytes = kib(1);
  chunking.pipeline_depth = 3;
  run_oracle_schedule(seed, seed * 977 + 13, chunking, /*lossy=*/false);
}

// The delta-plane twin of the lossy fuzz regime: every frame of every host
// rides an unreliable fabric (drops, bit corruption, jittered latency), and
// the reliable-delivery layer must carry the VDD1 delta frames through it
// without the committed state leaving the oracle by a byte.
TEST_P(DataPlaneEquivalence, LossyFabricMatchesOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::ChunkPolicy chunking;
  chunking.chunk_bytes = kib(1);
  chunking.pipeline_depth = 3;
  run_oracle_schedule(seed, seed * 6271 + 101, chunking, /*lossy=*/true);
}

// Chunking must be a pure scheduling change: with the SAME logical
// schedule — including epochs aborted mid-exchange and node failures with
// recovery — a chunked and an unchunked harness must land on byte-identical
// committed state, even though their wall-clock timelines differ.
TEST_P(DataPlaneEquivalence, ChunkedContentMatchesUnchunked) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (ParityScheme scheme :
       {ParityScheme::Raid5, ParityScheme::Rdp, ParityScheme::Rs}) {
    net::ChunkPolicy chunking;
    chunking.chunk_bytes = kib(1);
    chunking.pipeline_depth = 2;
    Harness plain(seed, scheme);
    Harness chunked(seed, scheme, chunking);
    Rng driver(seed * 7919 + 29);

    for (int step = 0; step < 10; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " scheme " +
                                std::to_string(static_cast<int>(scheme)) +
                                " step " + std::to_string(step) +
                                " (chunked vs unchunked)";
      plain.where = chunked.where = where;
      const double dt = 0.5 + 0.25 * static_cast<double>(
                                         driver.uniform_u64(4));
      plain.cluster.advance_workloads(dt);
      chunked.cluster.advance_workloads(dt);

      const auto op = driver.uniform_u64(5);
      if (op == 0 && plain.state.committed_epoch() > 0) {
        const auto sp = plain.checkpoint_abort_mid_exchange();
        const auto sc = chunked.checkpoint_abort_mid_exchange();
        ASSERT_EQ(sp.has_value(), sc.has_value()) << where;
      } else if (op == 1 && plain.state.committed_epoch() > 0) {
        const auto victim = driver.uniform_u64(5);
        ASSERT_EQ(plain.fail_and_recover(victim),
                  chunked.fail_and_recover(victim))
            << where;
      } else {
        const auto sp = plain.checkpoint(0);
        const auto sc = chunked.checkpoint(0);
        // Timing differs by design; the byte accounting must not.
        ASSERT_EQ(sp.has_value(), sc.has_value()) << where;
        if (sp.has_value()) {
          EXPECT_EQ(sp->bytes_shipped, sc->bytes_shipped) << where;
          EXPECT_EQ(sp->raw_dirty_bytes, sc->raw_dirty_bytes) << where;
          EXPECT_EQ(sp->groups, sc->groups) << where;
        }
      }
      expect_equal_state(plain, chunked, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataPlaneEquivalence,
                         ::testing::Range(1, 1 + fuzz_seed_count()));

}  // namespace
}  // namespace vdc::core
