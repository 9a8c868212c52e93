#pragma once
// Test-only oracle for the epoch data plane.
//
// The coordinator captures O(dirty) off the hypervisor dirty log, shares
// unchanged pages with the committed checkpoint and folds deltas into the
// standing parity in place. This header restates what that work must
// amount to in the plainest terms: flatten every image, diff_images() it
// against the committed payload, compress the diff, and group-encode the
// committed payloads from scratch. Suites snapshot the observable state
// before an epoch and hold the coordinator's result to these functions.

#include <map>
#include <set>
#include <vector>

#include "checkpoint/rle.hpp"
#include "checkpoint/wire.hpp"
#include "cluster/manager.hpp"
#include "core/protocol.hpp"

namespace vdc::core::oracle {

using Payload = std::vector<std::byte>;

/// The parity a from-scratch encode of `payloads` (one per stripe member,
/// each zero-padded to `block_size`) yields.
inline std::vector<parity::Block> fresh_parity(
    ParityScheme scheme, std::size_t rs_m,
    const std::vector<Payload>& payloads, Bytes block_size) {
  const auto codec = make_codec(scheme, payloads.size(), rs_m);
  std::vector<parity::Block> padded;
  padded.reserve(payloads.size());
  for (const auto& p : payloads)
    padded.push_back(parity::padded_copy(p, block_size));
  const std::vector<parity::BlockView> views(padded.begin(), padded.end());
  return codec->encode(views);
}

/// Stripe width for `payloads` under the scheme's block granularity.
inline Bytes block_size_for(ParityScheme scheme, std::size_t rs_m,
                            const std::vector<Payload>& payloads) {
  Bytes widest = 0;
  for (const auto& p : payloads) widest = std::max<Bytes>(widest, p.size());
  return parity::round_up(
      widest, make_codec(scheme, payloads.size(), rs_m)->block_granularity());
}

/// The byte accounting EpochStats reports for a committed epoch.
struct EpochBytes {
  Bytes shipped = 0;
  Bytes delta = 0;
  Bytes trim = 0;
  Bytes xored = 0;
  Bytes raw_dirty = 0;
  bool full_exchange = false;

  /// One member of an incremental group: a VDD1 frame of the compressed
  /// diff per holder, or nothing when no page changed.
  void add_incremental(const Payload& committed, const Payload& image,
                       Bytes page_size, std::size_t holders) {
    const auto diff = checkpoint::diff_images(committed, image, page_size);
    const auto compressed = checkpoint::compress_delta(diff, committed);
    const bool changed = compressed.page_count() > 0;
    const Bytes wire = changed ? checkpoint::delta_frame_size(compressed) : 0;
    const Bytes trim_wire =
        changed ? checkpoint::delta_frame_size(compressed.page_count(),
                                               compressed.trim_payload_bytes)
                : 0;
    shipped += wire * holders;
    delta += wire * holders;
    trim += trim_wire * holders;
    xored += diff.raw_bytes() * holders;
    raw_dirty += diff.raw_bytes();
  }

  /// One member of a full-exchange group: the flat (or RLE) image per
  /// holder.
  void add_full(const Payload& image, bool compress_full,
                std::size_t holders) {
    const Bytes wire = compress_full
                           ? checkpoint::rle_encoded_size(image) + 16
                           : image.size();
    shipped += wire * holders;
    xored += image.size() * holders;
    raw_dirty += image.size();
    full_exchange = true;
  }
};

/// Everything an epoch may change, captured between epochs: live images,
/// committed payloads (keyed by VM, read at the VM's current node) and
/// parity records.
struct Snapshot {
  checkpoint::Epoch committed = 0;
  std::map<vm::VmId, Payload> images;
  std::map<vm::VmId, Bytes> page_size;
  std::map<vm::VmId, Payload> payloads;
  std::map<GroupId, DvdcState::ParityRecord> parity;

  static Snapshot take(cluster::ClusterManager& cluster, DvdcState& state,
                       const std::set<GroupId>& groups) {
    Snapshot s;
    s.committed = state.committed_epoch();
    for (vm::VmId vmid : cluster.all_vms()) {
      const auto loc = cluster.locate(vmid);
      if (!loc.has_value()) continue;
      const auto& image = cluster.machine(vmid).image();
      s.images[vmid] = image.flatten();
      s.page_size[vmid] = image.page_size();
      if (const auto* cp = state.node_store(*loc).find(vmid, s.committed))
        s.payloads[vmid] = cp->payload();
    }
    for (GroupId gid : groups)
      if (const auto* record = state.parity(gid)) s.parity[gid] = *record;
    return s;
  }

  /// Whether `group` (with pinned `holders`) can ship deltas this epoch:
  /// its committed stripe is whole, current and laid out exactly as
  /// planned, and every member holds a committed checkpoint.
  bool incremental(const ProtocolConfig& config, const RaidGroup& group,
                   const std::vector<cluster::NodeId>& holders) const {
    const auto it = parity.find(group.id);
    if (!config.incremental || it == parity.end()) return false;
    const auto& record = it->second;
    if (record.scheme != config.scheme || record.members != group.members ||
        record.epoch != committed || record.holders != holders)
      return false;
    for (const auto& block : record.blocks)
      if (block.empty()) return false;
    for (vm::VmId vmid : group.members)
      if (!payloads.count(vmid)) return false;
    return true;
  }

  /// The byte accounting of an epoch over `plan` starting from this
  /// snapshot.
  EpochBytes expected_bytes(const ProtocolConfig& config,
                            const PlacedPlan& plan) const {
    EpochBytes out;
    for (std::size_t gi = 0; gi < plan.plan.groups.size(); ++gi) {
      const RaidGroup& group = plan.plan.groups[gi];
      const std::size_t m = plan.holders[gi].size();
      const bool delta = incremental(config, group, plan.holders[gi]);
      for (vm::VmId vmid : group.members) {
        const Payload& image = images.at(vmid);
        if (delta)
          out.add_incremental(payloads.at(vmid), image, page_size.at(vmid),
                              m);
        else
          out.add_full(image, config.compress_full, m);
      }
    }
    return out;
  }
};

}  // namespace vdc::core::oracle
