/**
 * @file
 * Unit + property tests for the per-chiplet frame allocator, including
 * the common-availability searches Barre's driver relies on.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "mem/frame_allocator.hh"

using namespace barre;

TEST(FrameAllocator, StartsAllFree)
{
    FrameAllocator fa(100);
    EXPECT_EQ(fa.numFrames(), 100u);
    EXPECT_EQ(fa.freeFrames(), 100u);
    for (LocalPfn p = 0; p < 100; ++p)
        EXPECT_TRUE(fa.isFree(p));
}

TEST(FrameAllocator, AllocateSpecificFrame)
{
    FrameAllocator fa(64);
    EXPECT_TRUE(fa.allocate(10));
    EXPECT_FALSE(fa.isFree(10));
    EXPECT_FALSE(fa.allocate(10)); // double-allocate fails
    EXPECT_EQ(fa.freeFrames(), 63u);
}

TEST(FrameAllocator, AllocateAnyIsLowestFirst)
{
    FrameAllocator fa(64);
    fa.allocate(0);
    fa.allocate(1);
    auto p = fa.allocateAny();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 2u);
}

TEST(FrameAllocator, ReleaseAndReuse)
{
    FrameAllocator fa(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(fa.allocateAny().has_value());
    EXPECT_EQ(fa.freeFrames(), 0u);
    EXPECT_FALSE(fa.allocateAny().has_value());
    EXPECT_TRUE(fa.release(3));
    EXPECT_FALSE(fa.release(3)); // double free rejected
    auto p = fa.allocateAny();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 3u);
}

TEST(FrameAllocator, ExhaustionExactCount)
{
    FrameAllocator fa(130); // crosses word boundaries
    for (int i = 0; i < 130; ++i)
        EXPECT_TRUE(fa.allocateAny().has_value()) << i;
    EXPECT_FALSE(fa.allocateAny().has_value());
}

TEST(FrameAllocator, OutOfRangePanics)
{
    FrameAllocator fa(16);
    EXPECT_THROW(fa.isFree(16), std::logic_error);
}

TEST(FrameAllocator, CommonFreeIntersects)
{
    FrameAllocator a(32), b(32), c(32);
    a.allocate(0);
    b.allocate(1);
    c.allocate(2);
    std::array<const FrameAllocator *, 3> peers{&a, &b, &c};
    auto p = FrameAllocator::findCommonFree(peers);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 3u);
}

TEST(FrameAllocator, CommonFreeHonoursHint)
{
    FrameAllocator a(32), b(32);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    auto p = FrameAllocator::findCommonFree(peers, 10);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 10u);
}

TEST(FrameAllocator, CommonFreeNoneWhenDisjoint)
{
    FrameAllocator a(4), b(4);
    a.allocate(0);
    a.allocate(1);
    b.allocate(2);
    b.allocate(3);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    EXPECT_FALSE(FrameAllocator::findCommonFree(peers).has_value());
}

TEST(FrameAllocator, CommonFreeRunFindsContiguity)
{
    FrameAllocator a(32), b(32);
    // Punch holes so the first common run of 3 starts at 9.
    a.allocate(1);
    b.allocate(4);
    a.allocate(6);
    b.allocate(8);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    auto p = FrameAllocator::findCommonFreeRun(peers, 3);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 9u);
    // All three frames are free in both.
    for (LocalPfn q = *p; q < *p + 3; ++q) {
        EXPECT_TRUE(a.isFree(q));
        EXPECT_TRUE(b.isFree(q));
    }
}

TEST(FrameAllocator, CommonFreeRunTooLongFails)
{
    FrameAllocator a(8), b(8);
    for (LocalPfn p = 0; p < 8; p += 2)
        a.allocate(p); // every other frame gone
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    EXPECT_FALSE(FrameAllocator::findCommonFreeRun(peers, 2).has_value());
    EXPECT_TRUE(FrameAllocator::findCommonFreeRun(peers, 1).has_value());
}

TEST(FrameAllocator, FragmentationInjectionClaimsRoughlyFraction)
{
    FrameAllocator fa(10000);
    Rng rng(5);
    std::uint64_t claimed = fa.injectFragmentation(0.25, rng);
    EXPECT_NEAR(static_cast<double>(claimed), 2500.0, 200.0);
    EXPECT_EQ(fa.freeFrames(), 10000 - claimed);
}

TEST(FrameAllocator, HintSurvivesReleaseBelow)
{
    FrameAllocator fa(64);
    for (int i = 0; i < 32; ++i)
        fa.allocateAny();
    fa.release(5);
    auto p = fa.allocateAny();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 5u); // scan hint was pulled back
}

/** Property: free count always equals the number of free bits. */
TEST(FrameAllocator, FreeCountInvariantUnderRandomOps)
{
    FrameAllocator fa(512);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        LocalPfn p = rng.below(512);
        if (rng.chance(0.5))
            fa.allocate(p);
        else
            fa.release(p);
    }
    std::uint64_t free_bits = 0;
    for (LocalPfn p = 0; p < 512; ++p)
        free_bits += fa.isFree(p) ? 1 : 0;
    EXPECT_EQ(free_bits, fa.freeFrames());
}

namespace
{

/**
 * Reference oracle for findCommonFreeRun: the original frame-at-a-time,
 * peer-at-a-time scan, kept here so the word-parallel search can be
 * checked against it.
 */
std::optional<LocalPfn>
oracleCommonFreeRun(std::span<const FrameAllocator *> peers,
                    std::uint64_t run_length, LocalPfn start_hint)
{
    std::uint64_t frames = peers.front()->numFrames();
    for (const auto *p : peers)
        frames = std::min(frames, p->numFrames());
    if (frames < run_length)
        return std::nullopt;
    std::uint64_t run = 0;
    for (LocalPfn pfn = start_hint; pfn < frames; ++pfn) {
        bool all_free = true;
        for (const auto *p : peers) {
            if (!p->isFree(pfn)) {
                all_free = false;
                break;
            }
        }
        run = all_free ? run + 1 : 0;
        if (run == run_length)
            return pfn + 1 - run_length;
    }
    return std::nullopt;
}

} // namespace

TEST(FrameAllocator, CommonFreeRunCrossesWordBoundary)
{
    FrameAllocator a(256), b(200);
    for (LocalPfn p = 0; p < 200; ++p)
        if (p < 60 || p > 130)
            a.allocate(p);
    b.allocate(100);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    // 60..99 is the only common run below 101 and spans words 0 and 1.
    EXPECT_EQ(FrameAllocator::findCommonFreeRun(peers, 40), 60u);
    EXPECT_EQ(FrameAllocator::findCommonFreeRun(peers, 30, 61), 61u);
    EXPECT_EQ(FrameAllocator::findCommonFreeRun(peers, 30, 71), 101u);
    EXPECT_FALSE(FrameAllocator::findCommonFreeRun(peers, 41).has_value());
    // Runs may not extend past the smallest peer's frame space.
    FrameAllocator c(70), d(128);
    std::array<const FrameAllocator *, 2> short_peers{&c, &d};
    EXPECT_EQ(FrameAllocator::findCommonFreeRun(short_peers, 70), 0u);
    EXPECT_FALSE(
        FrameAllocator::findCommonFreeRun(short_peers, 6, 65).has_value());
    EXPECT_EQ(FrameAllocator::findCommonFreeRun(short_peers, 5, 65), 65u);
    EXPECT_FALSE(
        FrameAllocator::findCommonFreeRun(short_peers, 1, 70).has_value());
    EXPECT_FALSE(FrameAllocator::findCommonFreeRun(short_peers, 71)
                     .has_value());
}

/**
 * Differential check of findCommonFreeRun against the frame-at-a-time
 * oracle: random fragmentation, 1-16 peers of unequal size, unaligned
 * start hints, run lengths 1-130 (word-crossing and unsatisfiable).
 */
TEST(FrameAllocator, CommonFreeRunMatchesFrameScanOracle)
{
    Rng rng(2024);
    const double densities[] = {0.0, 0.0, 0.002, 0.01, 0.05, 0.2, 0.6};
    int found = 0, crossing = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::size_t n = 1 + rng.below(16);
        std::uint64_t base = 32 + rng.below(700);
        std::vector<std::unique_ptr<FrameAllocator>> owned;
        std::vector<const FrameAllocator *> peers;
        for (std::size_t i = 0; i < n; ++i) {
            auto fa = std::make_unique<FrameAllocator>(
                base + rng.below(base / 2 + 1));
            // Per-peer density, plus a few allocated stretches so long
            // common runs both exist and get cut.
            fa->injectFragmentation(densities[rng.below(7)] / n,
                                    rng);
            for (auto k = rng.below(8) == 0 ? 2 : 0; k > 0; --k) {
                LocalPfn at = rng.below(fa->numFrames());
                LocalPfn len = 1 + rng.below(80);
                for (LocalPfn p = at; p < at + len && p < fa->numFrames();
                     ++p)
                    fa->allocate(p);
            }
            peers.push_back(fa.get());
            owned.push_back(std::move(fa));
        }
        std::uint64_t run = 1 + rng.below(130);
        LocalPfn hint = rng.below(4) == 0 ? 0 : rng.below(base * 3 / 4 + 64);
        std::span<const FrameAllocator *> view(peers);
        auto want = oracleCommonFreeRun(view, run, hint);
        auto got = FrameAllocator::findCommonFreeRun(view, run, hint);
        ASSERT_EQ(got, want) << "trial " << trial << ": " << n
                             << " peers, run " << run << ", hint " << hint;
        found += want.has_value();
        crossing += want && *want % 64 + run > 64;
    }
    // The draw must exercise both outcomes substantially, and runs that
    // span more than one bitmap word.
    EXPECT_GT(found, 1000);
    EXPECT_GT(4000 - found, 1000);
    EXPECT_GT(crossing, 300);
}
