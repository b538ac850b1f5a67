// A MigPartition is a concrete, placement-validated configuration of one
// A100 into MIG slices.
//
// Validity is decided by the hardware placement rules in mig_profile.h, not
// by totals alone: e.g. (3g.40gb, 3g.40gb, 1g.10gb) sums to 7 GPCs but is
// invalid because the two 3g instances consume all eight memory slots.
// The paper's §2.2 notes only a fixed set of configurations is possible on
// an A100; EnumerateMaximalPartitions() derives that set from the rules.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gpu/mig_profile.h"

namespace fluidfaas::gpu {

/// One placed slice inside a partition.
struct Placement {
  MigProfile profile;
  int start_slot;  // first memory slot occupied

  int end_slot() const { return start_slot + Info(profile).mem_slots; }
  auto operator<=>(const Placement&) const = default;
};

class MigPartition {
 public:
  MigPartition() = default;

  /// Build from explicit placements; throws FfsError if they violate the
  /// placement rules (overlap, illegal start, GPC overflow, profile count).
  explicit MigPartition(std::vector<Placement> placements);

  /// Build from a profile multiset, choosing placements greedily (largest
  /// profile first, lowest legal slot first). Returns nullopt if no legal
  /// placement of the multiset exists.
  static std::optional<MigPartition> FromProfiles(
      std::vector<MigProfile> profiles);

  /// Parse "4g.40gb+2g.20gb+1g.10gb" into a partition via FromProfiles.
  static MigPartition Parse(const std::string& spec);

  const std::vector<Placement>& placements() const { return placements_; }
  std::size_t slice_count() const { return placements_.size(); }
  int total_gpcs() const;
  Bytes total_memory() const;

  /// True when no further slice of any profile can legally be added.
  bool IsMaximal() const;

  /// Profile multiset (sorted ascending) — the partition's "shape".
  std::vector<MigProfile> Profiles() const;

  std::string ToString() const;

  bool operator==(const MigPartition& other) const {
    return placements_ == other.placements_;
  }

 private:
  std::vector<Placement> placements_;  // kept sorted by start_slot
};

/// Check a placement list against the rules without constructing; returns a
/// human-readable reason on failure.
std::optional<std::string> ValidatePlacements(
    const std::vector<Placement>& placements);

/// All maximal valid partitions of one A100, deduplicated by placement.
/// Deterministic order (lexicographic by placements). Computed on first
/// use and shared for the life of the process.
const std::vector<MigPartition>& EnumerateMaximalPartitions();

// ---------------------------------------------------------------------------
// Named partitions used in the paper's evaluation (§6, Table 7).
// ---------------------------------------------------------------------------

/// Default per-GPU partition: 4g.40gb + 2g.20gb + 1g.10gb.
MigPartition DefaultPartition();

/// P1 (Table 7): every GPU = 4g.40gb + 2g.20gb + 1g.10gb.
std::vector<MigPartition> PartitionSchemeP1(int num_gpus);

/// P2 (Table 7): every GPU = 3g.40gb + 2g.20gb + 2g.20gb.
std::vector<MigPartition> PartitionSchemeP2(int num_gpus);

/// Hybrid (Table 7), defined for 8 GPUs:
///   1 × [1g.10gb ×7],  2 × [2g.20gb ×3 + 1g.10gb],
///   4 × [3g.40gb + 4g.40gb],  1 × [4g.40gb + 2g.20gb + 1g.10gb].
std::vector<MigPartition> PartitionSchemeHybrid();

}  // namespace fluidfaas::gpu
