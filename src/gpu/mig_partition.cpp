#include "gpu/mig_partition.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <sstream>

#include "common/error.h"

namespace fluidfaas::gpu {
namespace {

bool StartAllowed(MigProfile p, int start) {
  const auto& starts = AllowedStartSlots(p);
  return std::find(starts.begin(), starts.end(), start) != starts.end();
}

/// Occupancy bitmask over the 8 memory slots.
using SlotMask = unsigned;

SlotMask MaskOf(const Placement& pl) {
  SlotMask m = 0;
  for (int s = pl.start_slot; s < pl.end_slot(); ++s) m |= 1u << s;
  return m;
}

}  // namespace

std::optional<std::string> ValidatePlacements(
    const std::vector<Placement>& placements) {
  SlotMask used = 0;
  int gpcs = 0;
  std::map<MigProfile, int> counts;
  for (const auto& pl : placements) {
    if (!StartAllowed(pl.profile, pl.start_slot)) {
      return std::string("profile ") + Name(pl.profile) +
             " cannot start at memory slot " + std::to_string(pl.start_slot);
    }
    if (pl.end_slot() > kMemSlotsPerGpu) {
      return std::string("placement of ") + Name(pl.profile) +
             " overflows the 8 memory slots";
    }
    const SlotMask m = MaskOf(pl);
    if (used & m) {
      return std::string("placement of ") + Name(pl.profile) + " at slot " +
             std::to_string(pl.start_slot) + " overlaps another slice";
    }
    used |= m;
    gpcs += Gpcs(pl.profile);
    if (++counts[pl.profile] > Info(pl.profile).max_count) {
      return std::string("more than ") +
             std::to_string(Info(pl.profile).max_count) + " instances of " +
             Name(pl.profile);
    }
  }
  if (gpcs > kGpcsPerGpu) {
    return "total GPC count " + std::to_string(gpcs) + " exceeds " +
           std::to_string(kGpcsPerGpu);
  }
  return std::nullopt;
}

MigPartition::MigPartition(std::vector<Placement> placements)
    : placements_(std::move(placements)) {
  std::sort(placements_.begin(), placements_.end(),
            [](const Placement& a, const Placement& b) {
              return a.start_slot < b.start_slot;
            });
  if (auto err = ValidatePlacements(placements_)) {
    throw FfsError("invalid MIG partition: " + *err);
  }
}

std::optional<MigPartition> MigPartition::FromProfiles(
    std::vector<MigProfile> profiles) {
  // Place largest-first; for the A100 rule set greedy lowest-slot placement
  // of a sorted multiset succeeds whenever any placement does, because every
  // profile's legal start set is a prefix-aligned, nested structure.
  // A backtracking search is still used for robustness.
  std::sort(profiles.begin(), profiles.end(), [](MigProfile a, MigProfile b) {
    return Info(a).mem_slots > Info(b).mem_slots;
  });
  std::vector<Placement> chosen;
  std::function<bool(std::size_t, SlotMask)> place = [&](std::size_t i,
                                                         SlotMask used) {
    if (i == profiles.size()) return true;
    const MigProfile p = profiles[i];
    for (int start : AllowedStartSlots(p)) {
      Placement pl{p, start};
      if (pl.end_slot() > kMemSlotsPerGpu) continue;
      const SlotMask m = MaskOf(pl);
      if (used & m) continue;
      chosen.push_back(pl);
      if (place(i + 1, used | m)) return true;
      chosen.pop_back();
    }
    return false;
  };
  if (!place(0, 0)) return std::nullopt;
  // Validate counts / GPC totals through the constructor.
  try {
    return MigPartition(chosen);
  } catch (const FfsError&) {
    return std::nullopt;
  }
}

MigPartition MigPartition::Parse(const std::string& spec) {
  std::vector<MigProfile> profiles;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, '+')) {
    // Trim surrounding spaces.
    const auto b = tok.find_first_not_of(" \t");
    const auto e = tok.find_last_not_of(" \t");
    FFS_CHECK_MSG(b != std::string::npos, "empty profile token in: " + spec);
    profiles.push_back(ProfileFromName(tok.substr(b, e - b + 1)));
  }
  auto part = FromProfiles(std::move(profiles));
  FFS_CHECK_MSG(part.has_value(), "unplaceable partition spec: " + spec);
  return *part;
}

int MigPartition::total_gpcs() const {
  int g = 0;
  for (const auto& pl : placements_) g += Gpcs(pl.profile);
  return g;
}

Bytes MigPartition::total_memory() const {
  Bytes b = 0;
  for (const auto& pl : placements_) b += MemBytes(pl.profile);
  return b;
}

bool MigPartition::IsMaximal() const {
  SlotMask used = 0;
  int gpcs = 0;
  for (const auto& pl : placements_) {
    used |= MaskOf(pl);
    gpcs += Gpcs(pl.profile);
  }
  for (MigProfile p : kAllProfiles) {
    if (gpcs + Gpcs(p) > kGpcsPerGpu) continue;
    for (int start : AllowedStartSlots(p)) {
      Placement pl{p, start};
      if (pl.end_slot() > kMemSlotsPerGpu) continue;
      if (used & MaskOf(pl)) continue;
      // Check per-profile count limit as well.
      int count = 0;
      for (const auto& existing : placements_) {
        if (existing.profile == p) ++count;
      }
      if (count + 1 <= Info(p).max_count) return false;
    }
  }
  return true;
}

std::vector<MigProfile> MigPartition::Profiles() const {
  std::vector<MigProfile> ps;
  ps.reserve(placements_.size());
  for (const auto& pl : placements_) ps.push_back(pl.profile);
  std::sort(ps.begin(), ps.end());
  return ps;
}

std::string MigPartition::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (i) out += "+";
    out += Name(placements_[i].profile);
  }
  return out.empty() ? "(empty)" : out;
}

namespace {

std::vector<MigPartition> SearchMaximalPartitions() {
  // Depth-first over placements in canonical (slot, profile) order so each
  // placement *set* is generated exactly once.
  std::vector<Placement> all;
  for (MigProfile p : kAllProfiles) {
    for (int s : AllowedStartSlots(p)) {
      Placement pl{p, s};
      if (pl.end_slot() <= kMemSlotsPerGpu) all.push_back(pl);
    }
  }
  std::sort(all.begin(), all.end(), [](const Placement& a, const Placement& b) {
    if (a.start_slot != b.start_slot) return a.start_slot < b.start_slot;
    return Info(a.profile).mem_slots < Info(b.profile).mem_slots;
  });

  std::vector<MigPartition> result;
  std::vector<Placement> current;
  std::function<void(std::size_t, SlotMask, int)> dfs =
      [&](std::size_t from, SlotMask used, int gpcs) {
        bool extended = false;
        for (std::size_t i = from; i < all.size(); ++i) {
          const Placement& pl = all[i];
          if (gpcs + Gpcs(pl.profile) > kGpcsPerGpu) continue;
          const SlotMask m = MaskOf(pl);
          if (used & m) continue;
          int count = 0;
          for (const auto& c : current) {
            if (c.profile == pl.profile) ++count;
          }
          if (count + 1 > Info(pl.profile).max_count) continue;
          extended = true;
          current.push_back(pl);
          dfs(i + 1, used | m, gpcs + Gpcs(pl.profile));
          current.pop_back();
        }
        if (extended || current.empty()) return;
        // No extension from `from`, but a placement earlier in canonical
        // order might still fit; only record truly maximal sets.
        MigPartition part(current);
        if (part.IsMaximal()) result.push_back(std::move(part));
      };
  dfs(0, 0, 0);

  std::sort(result.begin(), result.end(),
            [](const MigPartition& a, const MigPartition& b) {
              return a.placements() < b.placements();
            });
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace

const std::vector<MigPartition>& EnumerateMaximalPartitions() {
  // The set follows from the placement rules alone, so the search runs
  // once per process; static initialisation is thread-safe for sweeps.
  static const std::vector<MigPartition> kPartitions =
      SearchMaximalPartitions();
  return kPartitions;
}

MigPartition DefaultPartition() {
  return MigPartition::Parse("4g.40gb+2g.20gb+1g.10gb");
}

std::vector<MigPartition> PartitionSchemeP1(int num_gpus) {
  return std::vector<MigPartition>(static_cast<std::size_t>(num_gpus),
                                   DefaultPartition());
}

std::vector<MigPartition> PartitionSchemeP2(int num_gpus) {
  return std::vector<MigPartition>(
      static_cast<std::size_t>(num_gpus),
      MigPartition::Parse("3g.40gb+2g.20gb+2g.20gb"));
}

std::vector<MigPartition> PartitionSchemeHybrid() {
  std::vector<MigPartition> parts;
  parts.push_back(MigPartition::Parse(
      "1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb"));
  for (int i = 0; i < 2; ++i) {
    parts.push_back(
        MigPartition::Parse("2g.20gb+2g.20gb+2g.20gb+1g.10gb"));
  }
  for (int i = 0; i < 4; ++i) {
    parts.push_back(MigPartition::Parse("3g.40gb+4g.40gb"));
  }
  parts.push_back(DefaultPartition());
  FFS_CHECK(parts.size() == 8);
  return parts;
}

}  // namespace fluidfaas::gpu
