// CheckedId: ids are minted from wider counters (container sizes, int64
// sequence numbers) and must throw instead of wrapping once a counter
// leaves the 32-bit id space.
#include "common/types.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/error.h"

namespace fluidfaas {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();

TEST(CheckedIdTest, AcceptsTheWholeInt32Range) {
  EXPECT_EQ(CheckedId<RequestId>(0).value, 0);
  EXPECT_EQ(CheckedId<RequestId>(kMax).value, kMax);
  EXPECT_EQ(CheckedId<RequestId>(static_cast<std::size_t>(kMax)).value, kMax);
}

TEST(CheckedIdTest, ThrowsJustAboveInt32Max) {
  EXPECT_THROW(CheckedId<RequestId>(kMax + 1), FfsError);
  EXPECT_THROW(CheckedId<RequestId>(static_cast<std::size_t>(kMax + 1)),
               FfsError);
}

TEST(CheckedIdTest, ThrowsOnNegative) {
  EXPECT_THROW(CheckedId<RequestId>(std::int64_t{-1}), FfsError);
}

}  // namespace
}  // namespace fluidfaas
