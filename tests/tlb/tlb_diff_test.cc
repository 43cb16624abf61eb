/**
 * @file
 * Differential test of the TagStore-backed Tlb against the
 * array-of-structs TLB it replaced, kept here as the oracle.
 *
 * Seeded random streams of lookup, peek, insert, re-insert, invalidate,
 * invalidateAsid and shootdown drive both side by side over several
 * geometries (64-way fully associative, 16-way, 4-way, set counts that
 * are not powers of two, asid_partitions 2 and 4). Every return value,
 * the evict and insert listener sequences, the statistics, per-ASID
 * occupancy and the forEachValid order must agree. A variant keeps
 * pushing the LRU clock to its limit so the stamp renumbering runs
 * many times mid-stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "tlb/tlb.hh"

using namespace barre;

namespace
{

/**
 * Reference oracle: the original TLB, one 48-byte way (a full entry
 * plus a 64-bit last-touch stamp) per slot, scanned in place.
 */
class OracleTlb
{
  public:
    using Listener = InlineFn<void(const TlbEntry &)>;

    explicit OracleTlb(const TlbParams &p) : params_(p)
    {
        sets_ = p.entries / p.ways;
        ways_.resize(p.entries);
    }

    std::optional<TlbEntry>
    lookup(ProcessId pid, Vpn vpn)
    {
        if (Way *way = findWay(pid, vpn)) {
            way->lru = ++stamp_;
            ++hits_;
            return way->entry;
        }
        ++misses_;
        return std::nullopt;
    }

    std::optional<TlbEntry>
    peek(ProcessId pid, Vpn vpn)
    {
        if (Way *way = findWay(pid, vpn))
            return way->entry;
        return std::nullopt;
    }

    void
    insert(const TlbEntry &entry)
    {
        if (Way *way = findWay(entry.pid, entry.vpn)) {
            way->entry = entry;
            way->lru = ++stamp_;
            return;
        }
        std::uint32_t w_lo = 0;
        std::uint32_t w_hi = params_.ways;
        if (params_.asid_partitions > 0) {
            const std::uint32_t per =
                params_.ways / params_.asid_partitions;
            w_lo = (entry.pid % params_.asid_partitions) * per;
            w_hi = w_lo + per;
        }
        std::uint32_t set = entry.vpn % sets_;
        Way *victim = nullptr;
        for (std::uint32_t w = w_lo; w < w_hi; ++w) {
            Way &way = ways_[std::size_t{set} * params_.ways + w];
            if (!way.entry.valid) {
                victim = &way;
                break;
            }
            if (!victim || way.lru < victim->lru)
                victim = &way;
        }
        if (victim->entry.valid) {
            ++evictions_;
            --valid_count_;
            occRemove(victim->entry.pid);
            if (on_evict_)
                on_evict_(victim->entry);
        }
        victim->entry = entry;
        victim->lru = ++stamp_;
        ++valid_count_;
        occInsert(entry.pid);
        if (on_insert_)
            on_insert_(victim->entry);
    }

    bool
    invalidate(ProcessId pid, Vpn vpn)
    {
        if (Way *way = findWay(pid, vpn)) {
            TlbEntry gone = way->entry;
            way->entry = TlbEntry{};
            --valid_count_;
            occRemove(gone.pid);
            if (on_evict_)
                on_evict_(gone);
            return true;
        }
        return false;
    }

    void
    shootdown()
    {
        for (Way &way : ways_) {
            if (way.entry.valid) {
                way.entry = TlbEntry{};
                --valid_count_;
            }
            way.lru = 0;
        }
        for (auto &[pid, occ] : asid_occ_)
            occ.current = 0;
    }

    std::uint64_t
    invalidateAsid(ProcessId pid)
    {
        std::uint64_t removed = 0;
        for (Way &way : ways_) {
            if (way.entry.valid && way.entry.pid == pid) {
                TlbEntry gone = way.entry;
                way.entry = TlbEntry{};
                way.lru = 0;
                --valid_count_;
                ++removed;
                if (on_evict_)
                    on_evict_(gone);
            }
        }
        auto it = asid_occ_.find(pid);
        if (it != asid_occ_.end())
            it->second.current = 0;
        return removed;
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Way &way : ways_)
            if (way.entry.valid)
                fn(way.entry);
    }

    void setEvictListener(Listener l) { on_evict_ = std::move(l); }
    void setInsertListener(Listener l) { on_insert_ = std::move(l); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t validEntries() const { return valid_count_; }

    std::uint64_t
    occupancy(ProcessId pid) const
    {
        auto it = asid_occ_.find(pid);
        return it != asid_occ_.end() ? it->second.current : 0;
    }

    std::uint64_t
    peakOccupancy(ProcessId pid) const
    {
        auto it = asid_occ_.find(pid);
        return it != asid_occ_.end() ? it->second.peak : 0;
    }

  private:
    struct Way
    {
        TlbEntry entry{};
        std::uint64_t lru = 0;
    };

    struct AsidOcc
    {
        std::uint64_t current = 0;
        std::uint64_t peak = 0;
    };

    Way *
    findWay(ProcessId pid, Vpn vpn)
    {
        std::uint32_t set = vpn % sets_;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            Way &way = ways_[std::size_t{set} * params_.ways + w];
            if (way.entry.valid && way.entry.vpn == vpn &&
                way.entry.pid == pid)
                return &way;
        }
        return nullptr;
    }

    void
    occInsert(ProcessId pid)
    {
        AsidOcc &occ = asid_occ_[pid];
        ++occ.current;
        if (occ.current > occ.peak)
            occ.peak = occ.current;
    }

    void occRemove(ProcessId pid) { --asid_occ_[pid].current; }

    TlbParams params_;
    std::uint32_t sets_;
    std::vector<Way> ways_;
    std::uint64_t stamp_ = 0;
    std::uint64_t valid_count_ = 0;
    std::map<ProcessId, AsidOcc> asid_occ_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    Listener on_evict_;
    Listener on_insert_;
};

std::string
show(const TlbEntry &e)
{
    return "pid " + std::to_string(e.pid) + " vpn " +
           std::to_string(e.vpn) + " pfn " + std::to_string(e.pfn) +
           " bitmap " + std::to_string(e.coal.bitmap) + " inter " +
           std::to_string(e.coal.interOrder) + " intra " +
           std::to_string(e.coal.intraOrder) + " merged " +
           std::to_string(e.coal.numMerged) + "/" +
           std::to_string(e.coal.merged) + " valid " +
           std::to_string(e.valid);
}

std::string
show(const std::optional<TlbEntry> &e)
{
    return e ? show(*e) : std::string("miss");
}

struct Geometry
{
    std::uint32_t entries;
    std::uint32_t ways;
    std::uint32_t partitions;
};

/**
 * Drive @p ops random operations into a new Tlb and the oracle.
 * @param renumber_every when nonzero, push the new TLB's LRU clock to
 *        a few touches short of its limit every that many operations.
 * @param[out] renumbers how many times the new TLB renumbered its
 *        stamps.
 * @param[out] shootdowns how many shootdowns the stream made.
 */
void
runStream(const Geometry &g, std::uint64_t seed, int ops,
          int renumber_every, std::uint64_t *renumbers = nullptr,
          int *shootdowns = nullptr)
{
    const TlbParams p{g.entries, g.ways, 1, 4, g.partitions};
    Tlb tlb(p);
    OracleTlb ref(p);
    std::vector<std::string> got_log, want_log;
    tlb.setEvictListener(
        [&](const TlbEntry &e) { got_log.push_back("E " + show(e)); });
    tlb.setInsertListener(
        [&](const TlbEntry &e) { got_log.push_back("I " + show(e)); });
    ref.setEvictListener(
        [&](const TlbEntry &e) { want_log.push_back("E " + show(e)); });
    ref.setInsertListener(
        [&](const TlbEntry &e) { want_log.push_back("I " + show(e)); });

    Rng rng(seed);
    constexpr ProcessId kPids = 5;
    // Three times the capacity of VPNs: enough reuse for hits and
    // re-inserts, enough spread for every set to fill and evict.
    const Vpn vpn_span = Vpn{g.entries} * 3;
    std::vector<std::pair<ProcessId, Vpn>> recent;
    auto key = [&]() -> std::pair<ProcessId, Vpn> {
        if (!recent.empty() && rng.chance(0.5))
            return recent[rng.below(recent.size())];
        return {static_cast<ProcessId>(rng.below(kPids)),
                0x4000 + rng.below(vpn_span)};
    };
    const std::string where = "entries " + std::to_string(g.entries) +
                              " ways " + std::to_string(g.ways) +
                              " partitions " +
                              std::to_string(g.partitions) + " seed " +
                              std::to_string(seed);

    int asid_drops = 0, drops_all = 0;
    for (int i = 0; i < ops; ++i) {
        if (renumber_every && i % renumber_every == 0)
            tlb.advanceLruClock(std::numeric_limits<std::uint32_t>::max() -
                                static_cast<std::uint32_t>(rng.below(8)));
        const auto [pid, vpn] = key();
        const std::uint64_t op = rng.below(1000);
        const std::string step = where + " op " + std::to_string(i);
        if (rng.below(2 * g.entries) == 0) {
            ++asid_drops;
            // Whole-ASID and whole-TLB drops come about every two and
            // every sixteen TLB-sized stretches, so sets still fill.
            ASSERT_EQ(tlb.invalidateAsid(pid), ref.invalidateAsid(pid))
                << step << " invalidateAsid";
        } else if (rng.below(16 * g.entries) == 0) {
            ++drops_all;
            tlb.shootdown();
            ref.shootdown();
        } else if (op < 400) {
            auto a = tlb.lookup(pid, vpn);
            auto b = ref.lookup(pid, vpn);
            ASSERT_EQ(show(a), show(b)) << step << " lookup";
        } else if (op < 500) {
            auto a = tlb.peek(pid, vpn);
            auto b = ref.peek(pid, vpn);
            ASSERT_EQ(show(a), show(b)) << step << " peek";
        } else if (op < 940) {
            TlbEntry e;
            e.pid = pid;
            e.vpn = vpn;
            e.pfn = rng.next() >> 20;
            e.coal.bitmap = static_cast<std::uint32_t>(rng.below(256));
            e.coal.interOrder = static_cast<std::uint8_t>(rng.below(8));
            e.coal.intraOrder = static_cast<std::uint8_t>(rng.below(4));
            e.coal.numMerged =
                static_cast<std::uint8_t>(1 + rng.below(4));
            e.coal.merged = rng.chance(0.3);
            e.valid = true;
            tlb.insert(e);
            ref.insert(e);
            recent.emplace_back(pid, vpn);
            if (recent.size() > g.entries)
                recent.erase(recent.begin(),
                             recent.begin() + g.entries / 2);
        } else {
            ASSERT_EQ(tlb.invalidate(pid, vpn), ref.invalidate(pid, vpn))
                << step << " invalidate";
        }
        ASSERT_EQ(got_log, want_log) << step << " listener sequence";
        ASSERT_EQ(tlb.hits(), ref.hits()) << step;
        ASSERT_EQ(tlb.misses(), ref.misses()) << step;
        ASSERT_EQ(tlb.evictions(), ref.evictions()) << step;
        ASSERT_EQ(tlb.validEntries(), ref.validEntries()) << step;
        if (i % 64 == 0 || i + 1 == ops) {
            for (ProcessId q = 0; q < kPids; ++q) {
                ASSERT_EQ(tlb.occupancy(q), ref.occupancy(q)) << step;
                ASSERT_EQ(tlb.peakOccupancy(q), ref.peakOccupancy(q))
                    << step;
            }
            std::vector<std::string> a, b;
            tlb.forEachValid([&](const TlbEntry &e) {
                a.push_back(show(e));
            });
            ref.forEachValid([&](const TlbEntry &e) {
                b.push_back(show(e));
            });
            ASSERT_EQ(a, b) << step << " forEachValid";
        }
        got_log.clear();
        want_log.clear();
    }
    // The stream must have exercised hits and replacement.
    EXPECT_GT(tlb.hits(), 0u) << where;
    EXPECT_GT(tlb.evictions(), 0u) << where;
    EXPECT_GT(asid_drops, 0) << where;
    if (renumbers)
        *renumbers = tlb.lruRenumbers();
    if (shootdowns)
        *shootdowns += drops_all;
}

const Geometry kGeometries[] = {
    {64, 64, 0},  // Table II L1: one fully associative set
    {512, 16, 0}, // Table II L2: 32 sets
    {64, 4, 0},   // 16 sets
    {48, 4, 0},   // 12 sets: modulo set index
    {96, 16, 0},  // 6 sets
    {512, 16, 2}, // per-tenant halves
    {64, 16, 4},  // per-tenant quarters
    {64, 64, 4},  // quarters of one fully associative set
    {40, 4, 2},   // 10 sets, halves
};

/** Stream length: about thirty fills of the TLB. */
int
opsFor(const Geometry &g)
{
    return static_cast<int>(std::max<std::uint32_t>(6000, 30 * g.entries));
}

} // namespace

TEST(TlbDiff, MatchesOracleAcrossGeometries)
{
    int shootdowns = 0;
    for (const Geometry &g : kGeometries)
        for (std::uint64_t seed : {1, 2, 3})
            runStream(g, seed * 7919 + g.entries, opsFor(g), 0, nullptr,
                      &shootdowns);
    EXPECT_GT(shootdowns, 0);
}

TEST(TlbDiff, MatchesOracleThroughLruRenumbering)
{
    for (const Geometry &g : kGeometries) {
        std::uint64_t renumbers = 0;
        runStream(g, 0xbeef + g.ways, opsFor(g), 97, &renumbers);
        // Every 97 operations the clock is pushed within 8 touches of
        // its limit; inserts and hits are most of the stream, so the
        // stamps are renumbered many times.
        EXPECT_GE(renumbers, 40u) << "entries " << g.entries;
    }
}

TEST(TlbDiff, InvalidVpnIsNeverAHit)
{
    Tlb tlb(TlbParams{16, 4, 1, 4});
    EXPECT_FALSE(tlb.lookup(0, invalid_vpn).has_value());
    EXPECT_FALSE(tlb.peek(0, invalid_vpn).has_value());
    EXPECT_FALSE(tlb.invalidate(0, invalid_vpn));
    TlbEntry e;
    e.vpn = invalid_vpn;
    e.valid = true;
    EXPECT_THROW(tlb.insert(e), std::logic_error);
}
