/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace barre;

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, TracksMoments)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, HandlesNegativeValues)
{
    Accumulator a;
    a.sample(-5.0);
    a.sample(5.0);
    EXPECT_DOUBLE_EQ(a.min(), -5.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}
