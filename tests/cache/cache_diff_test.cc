/**
 * @file
 * Differential test of the TagStore-backed Cache against the
 * array-of-structs cache it replaced, kept here as the oracle.
 *
 * Seeded random streams of accesses, page invalidations and full
 * invalidations drive both side by side over several geometries (the
 * Table II L1 and L2, fully associative, set counts that are not powers
 * of two). Every hit/miss, every dropped-line count and the statistics
 * must agree. A variant keeps pushing the LRU clock to its limit so the
 * stamp renumbering runs many times mid-stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "sim/rng.hh"

using namespace barre;

namespace
{

/**
 * Reference oracle: the original cache, one 24-byte way (a 64-bit line
 * tag, a 64-bit stamp and a valid flag) per slot, scanned in place.
 */
class OracleCache
{
  public:
    explicit OracleCache(const CacheParams &p) : params_(p)
    {
        line_shift_ = static_cast<std::uint32_t>(
            std::countr_zero(p.line_bytes));
        std::uint64_t lines = p.size_bytes / p.line_bytes;
        sets_ = static_cast<std::uint32_t>(lines / p.ways);
        ways_.resize(lines);
    }

    bool
    access(Addr paddr)
    {
        Addr line = paddr >> line_shift_;
        std::uint32_t set = static_cast<std::uint32_t>(line % sets_);
        Way *victim = nullptr;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            Way &way = ways_[std::size_t{set} * params_.ways + w];
            if (way.valid && way.tag == line) {
                way.lru = ++stamp_;
                ++hits_;
                return true;
            }
            if (!way.valid) {
                if (!victim || victim->valid)
                    victim = &way;
            } else if (!victim ||
                       (victim->valid && way.lru < victim->lru)) {
                victim = &way;
            }
        }
        ++misses_;
        victim->valid = true;
        victim->tag = line;
        victim->lru = ++stamp_;
        return false;
    }

    std::uint32_t
    invalidatePage(Pfn pfn, std::uint32_t page_shift)
    {
        std::uint32_t dropped = 0;
        std::uint32_t lines_shift = page_shift - line_shift_;
        for (Way &way : ways_) {
            if (way.valid && (way.tag >> lines_shift) == pfn) {
                way.valid = false;
                ++dropped;
            }
        }
        return dropped;
    }

    void
    invalidateAll()
    {
        for (Way &way : ways_)
            way.valid = false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        Addr tag = ~Addr{0};
        std::uint64_t lru = 0;
        bool valid = false;
    };

    CacheParams params_;
    std::uint32_t sets_;
    std::uint32_t line_shift_;
    std::vector<Way> ways_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Drive @p ops random operations into a new Cache and the oracle.
 * @param renumber_every when nonzero, push the new cache's LRU clock to
 *        a few touches short of its limit every that many operations.
 * @param[out] renumbers how many times the new cache renumbered its
 *        stamps.
 */
void
runStream(const CacheParams &p, std::uint64_t seed, int ops,
          int renumber_every, std::uint64_t *renumbers = nullptr)
{
    Cache cache(p);
    OracleCache ref(p);
    Rng rng(seed);
    const std::uint64_t lines = p.size_bytes / p.line_bytes;
    // Pages of 4 KiB (64 lines) spread over twice the capacity, and a
    // few far pages so line tags use their high bits too.
    const std::uint64_t pages = std::max<std::uint64_t>(2, lines / 32);
    const std::string where = "size " + std::to_string(p.size_bytes) +
                              " ways " + std::to_string(p.ways) +
                              " seed " + std::to_string(seed);
    std::vector<Addr> recent;
    for (int i = 0; i < ops; ++i) {
        if (renumber_every && i % renumber_every == 0)
            cache.advanceLruClock(
                std::numeric_limits<std::uint32_t>::max() -
                static_cast<std::uint32_t>(rng.below(8)));
        const std::string step = where + " op " + std::to_string(i);
        const std::uint64_t op = rng.below(1000);
        if (op < 990) {
            Addr paddr;
            if (!recent.empty() && rng.chance(0.4)) {
                paddr = recent[rng.below(recent.size())];
            } else {
                std::uint64_t page = rng.below(pages);
                if (rng.chance(0.05))
                    page += std::uint64_t{1} << 22; // 16 GiB up
                paddr = (page << 12) | rng.below(4096);
                recent.push_back(paddr);
                if (recent.size() > lines)
                    recent.erase(recent.begin(),
                                 recent.begin() + lines / 2);
            }
            ASSERT_EQ(cache.access(paddr), ref.access(paddr))
                << step << " access " << paddr;
        } else if (op < 999) {
            const std::uint32_t shift = rng.chance(0.8) ? 12 : 16;
            const Pfn pfn =
                recent.empty()
                    ? 0
                    : recent[rng.below(recent.size())] >> shift;
            ASSERT_EQ(cache.invalidatePage(pfn, shift),
                      ref.invalidatePage(pfn, shift))
                << step << " invalidatePage";
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(cache.hits(), ref.hits()) << step;
        ASSERT_EQ(cache.misses(), ref.misses()) << step;
    }
    // The stream must have exercised hits and replacement.
    EXPECT_GT(cache.hits(), 0u) << where;
    EXPECT_GT(cache.misses(), lines) << where;
    if (renumbers)
        *renumbers = cache.lruRenumbers();
}

const CacheParams kGeometries[] = {
    {16 * 1024, 4, 64, 1, 16},        // Table II L1: 64 sets
    {2 * 1024 * 1024, 16, 64, 20, 64}, // Table II L2: 2048 sets
    {4 * 1024, 64, 64, 1, 4},          // one fully associative set
    {1024, 2, 64, 1, 4},               // 8 sets
    {3 * 4 * 64, 4, 64, 1, 4},         // 3 sets: modulo set index
    {6 * 16 * 64, 16, 64, 1, 4},       // 6 sets
    {5 * 2 * 128, 2, 128, 1, 4},       // 5 sets of 128-byte lines
};

/** Stream length: long enough to fill and evict every set. */
int
opsFor(const CacheParams &p)
{
    return static_cast<int>(
        std::max<std::uint64_t>(20000, 4 * p.size_bytes / p.line_bytes));
}

} // namespace

TEST(CacheDiff, MatchesOracleAcrossGeometries)
{
    for (const CacheParams &p : kGeometries)
        for (std::uint64_t seed : {1, 2, 3})
            runStream(p, seed * 104729 + p.ways, opsFor(p), 0);
}

TEST(CacheDiff, MatchesOracleThroughLruRenumbering)
{
    for (const CacheParams &p : kGeometries) {
        // Renumbering scans the whole store; space it out on the L2.
        const int every = p.size_bytes > 65536 ? 1009 : 97;
        std::uint64_t renumbers = 0;
        runStream(p, 0xcafe + p.ways, opsFor(p), every, &renumbers);
        EXPECT_GE(renumbers, std::uint64_t(opsFor(p) / every / 2))
            << "size " << p.size_bytes;
    }
}

TEST(CacheDiff, AddressBeyondTheTagsPanics)
{
    // 64 sets of 64-byte lines: 32-bit tags cover 2^44 bytes.
    Cache c(CacheParams{16 * 1024, 4, 64, 1, 16});
    EXPECT_FALSE(c.access((Addr{1} << 44) - 64 * 64 - 1));
    EXPECT_THROW(c.access(Addr{1} << 44), std::logic_error);
    EXPECT_THROW(c.access(~Addr{0}), std::logic_error);
}
