/**
 * @file
 * Unit + property tests for the cuckoo filter: no false negatives,
 * deletion support, false-positive bound, load behaviour.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "filters/cuckoo_filter.hh"
#include "sim/rng.hh"

using namespace barre;

TEST(CuckooFilter, EmptyContainsNothing)
{
    CuckooFilter f;
    EXPECT_FALSE(f.contains(42));
    EXPECT_EQ(f.size(), 0u);
}

TEST(CuckooFilter, InsertThenContains)
{
    CuckooFilter f;
    EXPECT_TRUE(f.insert(42));
    EXPECT_TRUE(f.contains(42));
    EXPECT_EQ(f.size(), 1u);
}

TEST(CuckooFilter, EraseRemoves)
{
    CuckooFilter f;
    f.insert(42);
    EXPECT_TRUE(f.erase(42));
    EXPECT_FALSE(f.contains(42));
    EXPECT_EQ(f.size(), 0u);
    EXPECT_FALSE(f.erase(42));
}

TEST(CuckooFilter, ClearEmptiesEverything)
{
    CuckooFilter f;
    for (std::uint64_t i = 0; i < 100; ++i)
        f.insert(i);
    f.clear();
    EXPECT_EQ(f.size(), 0u);
    int positives = 0;
    for (std::uint64_t i = 0; i < 100; ++i)
        positives += f.contains(i) ? 1 : 0;
    EXPECT_EQ(positives, 0);
}

TEST(CuckooFilter, NoFalseNegativesAtModerateLoad)
{
    CuckooFilter f; // 1024 slots
    std::set<std::uint64_t> inserted;
    Rng rng(3);
    while (inserted.size() < 700) { // ~68% load
        std::uint64_t x = rng.next();
        if (f.insert(x))
            inserted.insert(x);
    }
    for (std::uint64_t x : inserted)
        EXPECT_TRUE(f.contains(x));
}

TEST(CuckooFilter, FalsePositiveRateNearTheory)
{
    // Table II geometry: 9-bit fingerprints, 4-way, 256 rows gives a
    // ~1.5% theoretical FP rate (paper §VII-K).
    CuckooFilter f;
    Rng rng(17);
    for (int i = 0; i < 900; ++i)
        f.insert(rng.next() | 0x1); // odd keys
    int fp = 0;
    const int probes = 20000;
    for (int i = 0; i < probes; ++i) {
        std::uint64_t never = (rng.next() << 1); // even keys
        fp += f.contains(never) ? 1 : 0;
    }
    double rate = static_cast<double>(fp) / probes;
    EXPECT_LT(rate, 0.04);
}

TEST(CuckooFilter, DeleteOnlyRemovesOneCopy)
{
    CuckooFilter f;
    f.insert(7);
    f.insert(7);
    EXPECT_TRUE(f.erase(7));
    EXPECT_TRUE(f.contains(7)); // second copy remains
    EXPECT_TRUE(f.erase(7));
    EXPECT_FALSE(f.contains(7));
}

TEST(CuckooFilter, KicksRelocateUnderPressure)
{
    CuckooFilterParams p;
    p.rows = 4;
    p.ways = 2; // tiny: forces kicks quickly
    CuckooFilter f(p);
    int ok = 0;
    for (std::uint64_t i = 0; i < 8; ++i)
        ok += f.insert(i * 0x9e3779b9ull) ? 1 : 0;
    EXPECT_GE(ok, 4); // at least half should fit in 8 slots
    EXPECT_LE(f.size(), f.capacity());
}

TEST(CuckooFilter, StorageBitsMatchesGeometry)
{
    CuckooFilter f; // 256 rows x 4 ways x 9 bits
    EXPECT_EQ(f.storageBits(), 256u * 4 * 9);
}

TEST(CuckooFilter, RowsMustBePowerOfTwo)
{
    CuckooFilterParams p;
    p.rows = 100;
    EXPECT_THROW(CuckooFilter f(p), std::logic_error);
}

TEST(CuckooFilter, RowsBeyondSixteenBitOffsetsRejected)
{
    CuckooFilterParams p;
    p.rows = 65536; // largest geometry a 16-bit offset encodes
    p.ways = 1;
    EXPECT_NO_THROW(CuckooFilter f(p));
    p.rows = 131072;
    try {
        CuckooFilter f(p);
        FAIL() << "131072 rows accepted";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("16 bits"), std::string::npos)
            << e.what();
    }
}

TEST(CuckooFilter, SaltedInstancesHashDifferently)
{
    CuckooFilterParams p1, p2;
    p2.salt = 99;
    CuckooFilter a(p1), b(p2);
    // Insert into a only; b must not report them at a high rate.
    Rng rng(23);
    int cross = 0;
    for (int i = 0; i < 200; ++i) {
        std::uint64_t x = rng.next();
        a.insert(x);
        cross += b.contains(x) ? 1 : 0;
    }
    EXPECT_LT(cross, 10);
}

/** Parameterized sweep over the Fig 17b filter sizes. */
class CuckooSizeSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CuckooSizeSweep, HoldsWorkingSetWithoutFalseNegatives)
{
    CuckooFilterParams p;
    p.rows = GetParam();
    CuckooFilter f(p);
    std::uint64_t target = f.capacity() * 6 / 10;
    std::set<std::uint64_t> inserted;
    Rng rng(p.rows);
    while (inserted.size() < target) {
        std::uint64_t x = rng.next();
        if (f.insert(x))
            inserted.insert(x);
    }
    for (std::uint64_t x : inserted)
        ASSERT_TRUE(f.contains(x));
    // Deleting everything empties the filter exactly.
    for (std::uint64_t x : inserted)
        ASSERT_TRUE(f.erase(x));
    EXPECT_EQ(f.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Fig17bSizes, CuckooSizeSweep,
                         ::testing::Values(256u, 512u, 1024u));

namespace
{

/** Order-sensitive fold of one observed value into a running digest. */
void
fold(std::uint64_t &digest, std::uint64_t v)
{
    digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
    digest *= 0xff51afd7ed558ccdull;
    digest ^= digest >> 29;
}

/**
 * Drive one filter through a seeded fill → saturated insert/erase →
 * drain stream and fold every observable result into @p digest:
 * each insert/erase return value, size() and lossyInserts() after
 * every phase, and contains() over a fixed probe set.
 */
void
foldFilterStream(std::uint64_t &digest, const CuckooFilterParams &p)
{
    CuckooFilter f(p);
    Rng rng(p.rows * 1000003ull + p.ways * 101 + p.fingerprint_bits * 7 +
            p.max_kicks);
    std::vector<std::uint64_t> live;
    std::vector<std::uint64_t> probes;
    for (int i = 0; i < 64; ++i)
        probes.push_back(rng.next());

    auto observe = [&] {
        fold(digest, f.size());
        fold(digest, f.lossyInserts());
        for (std::uint64_t x : probes)
            fold(digest, f.contains(x));
        for (std::size_t i = 0; i < live.size(); i += 7)
            fold(digest, f.contains(live[i]));
    };
    auto insertFresh = [&] {
        // Mostly fresh keys, sometimes a duplicate of a live one.
        std::uint64_t x = !live.empty() && rng.below(16) == 0
                              ? live[rng.below(live.size())]
                              : rng.next();
        fold(digest, f.insert(x));
        live.push_back(x);
        if (probes.size() < 128 && rng.below(8) == 0)
            probes.push_back(x);
    };
    auto eraseOne = [&] {
        if (live.empty() || rng.below(16) == 0) {
            fold(digest, f.erase(rng.next())); // never inserted
            return;
        }
        std::size_t k = rng.below(live.size());
        fold(digest, f.erase(live[k]));
        live[k] = live.back();
        live.pop_back();
    };

    const std::uint64_t cap = f.capacity();
    // Fill well past capacity: the tail of this phase is saturated.
    for (std::uint64_t i = 0; i < cap + cap / 4 + 8; ++i)
        insertFresh();
    observe();
    // Saturated steady state: inserts and erases interleaved.
    for (std::uint64_t i = 0; i < cap + 8; ++i) {
        if (rng.below(2) == 0)
            insertFresh();
        else
            eraseOne();
    }
    observe();
    // Drain every key still believed live.
    while (!live.empty())
        eraseOne();
    observe();
}

} // namespace

/**
 * Identity proof for the filter's observable behaviour. The digest was
 * recorded from the reference implementation that recomputed each
 * alternate bucket with a fresh hash on every kick; any change to the
 * kick chain (RNG draw order, victim way, placement way, alternate
 * bucket) moves it.
 */
TEST(CuckooFilter, GoldenDigestAcrossGeometries)
{
    std::uint64_t digest = 0;
    for (std::uint32_t rows : {4u, 32u, 256u, 1024u})
        for (std::uint32_t ways : {1u, 2u, 4u, 8u})
            for (std::uint32_t bits : {4u, 9u, 16u})
                for (std::uint32_t kicks : {0u, 1u, 128u}) {
                    CuckooFilterParams p;
                    p.rows = rows;
                    p.ways = ways;
                    p.fingerprint_bits = bits;
                    p.max_kicks = kicks;
                    p.salt = rows ^ (ways << 12) ^ (bits << 20);
                    foldFilterStream(digest, p);
                }
    EXPECT_EQ(digest, 0x9ad54cc8c0c00f90ull)
        << std::hex << "digest 0x" << digest;
}
