#include "gpu/mig_partition.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"

namespace fluidfaas::gpu {
namespace {

TEST(PartitionTest, PaperDefaultPartitionIsValid) {
  MigPartition p = DefaultPartition();
  EXPECT_EQ(p.slice_count(), 3u);
  EXPECT_EQ(p.total_gpcs(), 7);
  EXPECT_EQ(p.total_memory(), GiB(70));
  EXPECT_EQ(p.Profiles(),
            (std::vector<MigProfile>{MigProfile::k1g10gb, MigProfile::k2g20gb,
                                     MigProfile::k4g40gb}));
}

// Valid partition specs from the paper (§2.2 and Table 7).
class ValidSpecTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ValidSpecTest, Parses) {
  const MigPartition p = MigPartition::Parse(GetParam());
  EXPECT_LE(p.total_gpcs(), kGpcsPerGpu);
  EXPECT_FALSE(p.placements().empty());
}

INSTANTIATE_TEST_SUITE_P(
    PaperPartitions, ValidSpecTest,
    ::testing::Values("4g.40gb+2g.20gb+1g.10gb",      // default / P1
                      "3g.40gb+2g.20gb+2g.20gb",      // P2
                      "4g.40gb+3g.40gb",              // §2.2 example
                      "3g.40gb+4g.40gb",              // hybrid row
                      "2g.20gb+2g.20gb+2g.20gb+1g.10gb",
                      "1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb",
                      "7g.80gb", "3g.40gb+3g.40gb"));

// Profile multisets that violate the placement rules or Table 2 limits.
class InvalidSpecTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InvalidSpecTest, Rejected) {
  EXPECT_THROW(MigPartition::Parse(GetParam()), FfsError);
}

INSTANTIATE_TEST_SUITE_P(
    Invalid, InvalidSpecTest,
    ::testing::Values("4g.40gb+4g.40gb",            // max count 1
                      "7g.80gb+1g.10gb",            // GPC overflow
                      "3g.40gb+3g.40gb+1g.10gb",    // no memory slot left
                      "4g.40gb+3g.40gb+1g.10gb",    // GPC overflow (8)
                      "2g.20gb+2g.20gb+2g.20gb+2g.20gb",  // max count 3
                      "1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+"
                      "1g.10gb+1g.10gb"));          // max count 7

TEST(PartitionTest, ExplicitPlacementValidation) {
  // 2g at slot 1 is illegal (allowed: 0, 2, 4).
  EXPECT_TRUE(ValidatePlacements({{MigProfile::k2g20gb, 1}}).has_value());
  // Overlap: 3g at 0-3 and 2g at 2-3.
  EXPECT_TRUE(ValidatePlacements(
                  {{MigProfile::k3g40gb, 0}, {MigProfile::k2g20gb, 2}})
                  .has_value());
  // Legal: 3g at 4-7 with 2g at 0-1 and 2g at 2-3 (the P2 layout).
  EXPECT_FALSE(ValidatePlacements({{MigProfile::k3g40gb, 4},
                                   {MigProfile::k2g20gb, 0},
                                   {MigProfile::k2g20gb, 2}})
                   .has_value());
}

TEST(PartitionTest, FromProfilesFindsPlacementNeedingBacktracking) {
  // 3g must take the upper half so the two 2g instances fit below.
  auto p = MigPartition::FromProfiles(
      {MigProfile::k2g20gb, MigProfile::k2g20gb, MigProfile::k3g40gb});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->total_gpcs(), 7);
}

TEST(PartitionTest, FromProfilesReturnsNulloptWhenUnplaceable) {
  EXPECT_FALSE(MigPartition::FromProfiles(
                   {MigProfile::k4g40gb, MigProfile::k4g40gb})
                   .has_value());
  EXPECT_FALSE(MigPartition::FromProfiles({MigProfile::k3g40gb,
                                           MigProfile::k3g40gb,
                                           MigProfile::k1g10gb})
                   .has_value());
}

TEST(PartitionTest, EnumerationInvariants) {
  const auto parts = EnumerateMaximalPartitions();
  ASSERT_FALSE(parts.empty());
  std::set<std::vector<Placement>> unique;
  for (const MigPartition& p : parts) {
    EXPECT_LE(p.total_gpcs(), kGpcsPerGpu);
    EXPECT_FALSE(ValidatePlacements(p.placements()).has_value());
    EXPECT_TRUE(p.IsMaximal()) << p.ToString();
    unique.insert(p.placements());
  }
  EXPECT_EQ(unique.size(), parts.size());  // no duplicates
}

// The distinct profile multisets ("shapes") among the maximal partitions.
std::set<std::vector<MigProfile>> MaximalShapes() {
  std::set<std::vector<MigProfile>> shapes;
  for (const MigPartition& p : EnumerateMaximalPartitions()) {
    shapes.insert(p.Profiles());
  }
  return shapes;
}

TEST(PartitionTest, EnumerationCountsAreCharacterized) {
  // With the paper's five profiles (Table 2) and A100 placement rules, the
  // enumerator finds 19 placement-distinct maximal configurations over 14
  // distinct profile multisets. (NVIDIA's "18 configurations" figure counts
  // a slightly different universe that includes the 1g.20gb profile the
  // paper's table omits.) These counts are pinned so an accidental rule
  // change fails loudly.
  EXPECT_EQ(EnumerateMaximalPartitions().size(), 19u);
  EXPECT_EQ(MaximalShapes().size(), 14u);
}

TEST(PartitionTest, EnumerationContainsPaperConfigs) {
  const auto shapes = MaximalShapes();
  auto contains = [&](const std::string& spec) {
    return shapes.count(MigPartition::Parse(spec).Profiles()) != 0;
  };
  EXPECT_TRUE(contains("4g.40gb+2g.20gb+1g.10gb"));
  EXPECT_TRUE(contains("3g.40gb+2g.20gb+2g.20gb"));
  EXPECT_TRUE(contains("4g.40gb+3g.40gb"));
  EXPECT_TRUE(contains("7g.80gb"));
  EXPECT_TRUE(contains(
      "1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb"));
}

TEST(PartitionTest, IsMaximalDetectsNonMaximal) {
  // A lone 4g leaves the upper half free for a 3g (or 2g+1g...).
  MigPartition p({{MigProfile::k4g40gb, 0}});
  EXPECT_FALSE(p.IsMaximal());
  // 3g@0 + 2g@4 + 1g@6 fills every reachable slot (slot 7 unreachable).
  MigPartition full({{MigProfile::k3g40gb, 0},
                     {MigProfile::k2g20gb, 4},
                     {MigProfile::k1g10gb, 6}});
  EXPECT_TRUE(full.IsMaximal());
}

TEST(PartitionTest, SchemesOfTable7) {
  const auto p1 = PartitionSchemeP1(8);
  ASSERT_EQ(p1.size(), 8u);
  for (const auto& p : p1) EXPECT_EQ(p.ToString(), DefaultPartition().ToString());

  const auto p2 = PartitionSchemeP2(8);
  ASSERT_EQ(p2.size(), 8u);
  for (const auto& p : p2) {
    EXPECT_EQ(p.Profiles(),
              (std::vector<MigProfile>{MigProfile::k2g20gb,
                                       MigProfile::k2g20gb,
                                       MigProfile::k3g40gb}));
  }

  const auto hybrid = PartitionSchemeHybrid();
  ASSERT_EQ(hybrid.size(), 8u);
  // Row 1: one GPU of seven 1g slices.
  EXPECT_EQ(hybrid[0].slice_count(), 7u);
  // Rows 2-3: 2g x3 + 1g.
  EXPECT_EQ(hybrid[1].total_gpcs(), 7);
  EXPECT_EQ(hybrid[2].Profiles(), hybrid[1].Profiles());
  // Rows 4-7: 3g + 4g.
  for (int i = 3; i < 7; ++i) {
    EXPECT_EQ(hybrid[static_cast<std::size_t>(i)].slice_count(), 2u);
  }
  // Row 8: the default partition.
  EXPECT_EQ(hybrid[7].Profiles(), DefaultPartition().Profiles());
}

TEST(PartitionTest, ToStringAndParseRoundTrip) {
  const MigPartition p = MigPartition::Parse("3g.40gb+2g.20gb+2g.20gb");
  const MigPartition q = MigPartition::Parse(p.ToString());
  EXPECT_EQ(p.Profiles(), q.Profiles());
}

TEST(PartitionTest, ParseToleratesSpaces) {
  const MigPartition p = MigPartition::Parse(" 4g.40gb + 3g.40gb ");
  EXPECT_EQ(p.slice_count(), 2u);
}

TEST(PartitionTest, EmptyPartitionDescribes) {
  MigPartition p;
  EXPECT_EQ(p.ToString(), "(empty)");
  EXPECT_EQ(p.total_gpcs(), 0);
}

}  // namespace
}  // namespace fluidfaas::gpu
