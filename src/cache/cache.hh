/**
 * @file
 * Physically-indexed, physically-tagged set-associative data cache.
 *
 * Functional hit/miss with LRU replacement; the chiplet memory pipeline
 * charges latencies. Used for per-CU L1 vector caches and the per-chiplet
 * L2 (Table II geometries).
 *
 * Lines live in a sim/tag_store.hh TagStore with 32-bit tags: a tag is
 * the line number without its set index (line / sets), so a 16-way set
 * of the L2 is one 64-byte row. Every access checks that its line's tag
 * fits below the empty-way tag, which bounds physical addresses at
 * (2^32 - 1) * sets * line_bytes (16 TiB for the Table II L1), and
 * panics rather than truncate.
 */

#pragma once

#include <cstdint>

#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/stats.hh"
#include "sim/tag_store.hh"

namespace barre
{

struct CacheParams
{
    std::uint64_t size_bytes = 16 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t line_bytes = 64;
    Cycles hit_latency = 1;
    std::uint32_t mshrs = 16;

    bool operator==(const CacheParams &) const = default;
};

// domain-owner:chiplet — every instance (per-CU L1s, per-chiplet L2)
// lives inside one chiplet; remote data goes over the Interconnect.
class Cache : public DomainOwned
{
  public:
    explicit Cache(const CacheParams &p);

    /**
     * Access the line containing physical address @p paddr, filling on
     * miss. @return true on hit.
     */
    bool access(Addr paddr);

    /** Invalidate every line whose frame is @p pfn (page migration). */
    std::uint32_t invalidatePage(Pfn pfn, std::uint32_t page_shift);

    void invalidateAll();

    const CacheParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Times the LRU clock reached its limit (see TagStore). */
    std::uint64_t lruRenumbers() const { return tags_.renumbers(); }
    /** Test hook: start the LRU clock at @p c (TagStore::advanceClock). */
    void advanceLruClock(std::uint32_t c) { tags_.advanceClock(c); }

  private:
    using Tags = TagStore<std::uint32_t>;

    CacheParams params_;
    std::uint32_t line_shift_;
    Tags tags_;
    Counter hits_;
    Counter misses_;
};

} // namespace barre

