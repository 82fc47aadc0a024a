/**
 * @file
 * Death and edge tests of the strict CLI number parsers.
 *
 * Every exhibit binary funnels numeric flags through cli::parse*;
 * each rejection path must exit with status 2 and a message naming
 * the flag, and each acceptance path must return the exact value.
 */

#include <gtest/gtest.h>

#include "cli/parse.hh"

namespace
{

using namespace dirsim;

TEST(ParseUnsigned, AcceptsDigits)
{
    EXPECT_EQ(cli::parseUnsigned("0", "n"), 0u);
    EXPECT_EQ(cli::parseUnsigned("42", "n"), 42u);
    EXPECT_EQ(cli::parseUnsigned("4294967295", "n"), 4294967295u);
}

TEST(ParseUnsignedDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(cli::parseUnsigned("", "--refs"),
                ::testing::ExitedWithCode(2), "invalid --refs");
    EXPECT_EXIT(cli::parseUnsigned(nullptr, "--refs"),
                ::testing::ExitedWithCode(2), "invalid --refs");
    EXPECT_EXIT(cli::parseUnsigned("12x", "--refs"),
                ::testing::ExitedWithCode(2), "invalid --refs");
    EXPECT_EXIT(cli::parseUnsigned("-3", "--refs"),
                ::testing::ExitedWithCode(2), "invalid --refs");
    EXPECT_EXIT(cli::parseUnsigned("4294967296", "--refs"),
                ::testing::ExitedWithCode(2), "invalid --refs");
}

TEST(ParseUnsignedDeathTest, RangeEnforced)
{
    EXPECT_EQ(cli::parseUnsignedInRange("5", "n", 1, 10), 5u);
    EXPECT_EXIT(cli::parseUnsignedInRange("11", "--reps", 1, 10),
                ::testing::ExitedWithCode(2), "--reps must be in");
}

TEST(ParseDouble, AcceptsFiniteDecimals)
{
    EXPECT_DOUBLE_EQ(cli::parseDouble("1.5", "r"), 1.5);
    EXPECT_DOUBLE_EQ(cli::parseDouble("0", "r"), 0.0);
    EXPECT_DOUBLE_EQ(cli::parseDouble("-2.25", "r"), -2.25);
    EXPECT_DOUBLE_EQ(cli::parseDouble("1e6", "r"), 1e6);
    EXPECT_DOUBLE_EQ(cli::parseDouble(".5", "r"), 0.5);
}

TEST(ParseDoubleDeathTest, RejectsEmptyAndTrailing)
{
    EXPECT_EXIT(cli::parseDouble("", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble(nullptr, "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble("1.5x", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble("1.5 ", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble("-", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
}

TEST(ParseDoubleDeathTest, RejectsNonFiniteAndOverflow)
{
    EXPECT_EXIT(cli::parseDouble("nan", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble("inf", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble("-inf", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
    EXPECT_EXIT(cli::parseDouble("1e999", "--floor"),
                ::testing::ExitedWithCode(2), "invalid --floor");
}

/**
 * The out-of-core trace knobs (--trace-cache-budget in MiB,
 * --stream-chunk-refs) parse through the strict helpers with the
 * exact ranges the binaries pass; pin the boundaries and the
 * rejection of the classic fat-finger inputs.
 */
TEST(TraceCacheKnobs, BudgetBoundariesRoundTrip)
{
    EXPECT_EQ(cli::parseUnsignedInRange("1", "--trace-cache-budget",
                                        1, 16u * 1024 * 1024),
              1u);
    EXPECT_EQ(cli::parseUnsignedInRange("4096", "--trace-cache-budget",
                                        1, 16u * 1024 * 1024),
              4096u);
    EXPECT_EQ(cli::parseUnsignedInRange("16777216",
                                        "--trace-cache-budget", 1,
                                        16u * 1024 * 1024),
              16777216u);
}

TEST(TraceCacheKnobsDeathTest, BudgetRejectsZeroNegativeAndUnits)
{
    EXPECT_EXIT(cli::parseUnsignedInRange("0", "--trace-cache-budget",
                                          1, 16u * 1024 * 1024),
                ::testing::ExitedWithCode(2),
                "--trace-cache-budget must be in");
    EXPECT_EXIT(cli::parseUnsignedInRange("16777217",
                                          "--trace-cache-budget", 1,
                                          16u * 1024 * 1024),
                ::testing::ExitedWithCode(2),
                "--trace-cache-budget must be in");
    EXPECT_EXIT(cli::parseUnsignedInRange("-1", "--trace-cache-budget",
                                          1, 16u * 1024 * 1024),
                ::testing::ExitedWithCode(2),
                "invalid --trace-cache-budget");
    // "4G" style unit suffixes are not accepted — MiB only.
    EXPECT_EXIT(cli::parseUnsignedInRange("4G", "--trace-cache-budget",
                                          1, 16u * 1024 * 1024),
                ::testing::ExitedWithCode(2),
                "invalid --trace-cache-budget");
}

TEST(TraceCacheKnobs, ChunkRefsBoundariesRoundTrip)
{
    EXPECT_EQ(cli::parseUnsignedInRange("1", "--stream-chunk-refs", 1,
                                        1u << 31),
              1u);
    EXPECT_EQ(cli::parseUnsignedInRange("1048576",
                                        "--stream-chunk-refs", 1,
                                        1u << 31),
              1048576u);
    EXPECT_EQ(cli::parseUnsignedInRange("2147483648",
                                        "--stream-chunk-refs", 1,
                                        1u << 31),
              2147483648u);
}

TEST(TraceCacheKnobsDeathTest, ChunkRefsRejectsZeroAndOverflow)
{
    EXPECT_EXIT(cli::parseUnsignedInRange("0", "--stream-chunk-refs",
                                          1, 1u << 31),
                ::testing::ExitedWithCode(2),
                "--stream-chunk-refs must be in");
    EXPECT_EXIT(cli::parseUnsignedInRange("2147483649",
                                          "--stream-chunk-refs", 1,
                                          1u << 31),
                ::testing::ExitedWithCode(2),
                "--stream-chunk-refs must be in");
    // 2^32 overflows parseUnsigned itself, not just the range check.
    EXPECT_EXIT(cli::parseUnsignedInRange("4294967296",
                                          "--stream-chunk-refs", 1,
                                          1u << 31),
                ::testing::ExitedWithCode(2),
                "invalid --stream-chunk-refs");
    EXPECT_EXIT(cli::parseUnsignedInRange("1e6", "--stream-chunk-refs",
                                          1, 1u << 31),
                ::testing::ExitedWithCode(2),
                "invalid --stream-chunk-refs");
}

TEST(ParseDoubleDeathTest, RangeEnforced)
{
    EXPECT_DOUBLE_EQ(
        cli::parseDoubleInRange("0.5", "r", 0.0, 1.0), 0.5);
    EXPECT_EXIT(cli::parseDoubleInRange("-0.1", "--floor", 0.0, 1e18),
                ::testing::ExitedWithCode(2), "--floor must be in");
    EXPECT_EXIT(cli::parseDoubleInRange("2", "--floor", 0.0, 1.0),
                ::testing::ExitedWithCode(2), "--floor must be in");
}

} // namespace
