/**
 * @file
 * Set-associative TLB with LRU replacement.
 *
 * Purely functional (lookups, fills, evictions, shootdowns); access
 * latencies are charged by the owning controller (CU pipeline for L1,
 * chiplet translation unit for L2). Entries are keyed by (process, VPN)
 * and carry the PFN plus - under Barre Chord - the coalescing-group
 * information the IOMMU attached to the ATS response (paper §V-A3).
 *
 * The VPN keys and LRU state live in a sim/tag_store.hh TagStore; the
 * PIDs sit in a parallel per-slot array that a lookup reads only where
 * the VPN matched, and the PFN and coalescing bits in another that only
 * a hit reads.
 *
 * An eviction listener lets F-Barre mirror insert/evict into its
 * coalescing-group filters.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/pte.hh"
#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/stats.hh"
#include "sim/tag_store.hh"

namespace barre
{

struct TlbParams
{
    std::uint32_t entries = 512;
    std::uint32_t ways = 16;
    Cycles lookup_latency = 10;
    std::uint32_t mshrs = 16;

    /**
     * Per-tenant way partitioning: 0 (default) shares all ways, N > 0
     * statically carves the ways of each set into N partitions and
     * restricts fills for process p to partition p % N. Lookups still
     * search the whole set, so 0 is bitwise-identical to the historic
     * shared policy.
     */
    std::uint32_t asid_partitions = 0;

    bool operator==(const TlbParams &) const = default;
};

struct TlbEntry
{
    ProcessId pid = 0;
    Vpn vpn = invalid_vpn;
    Pfn pfn = invalid_pfn;
    CoalInfo coal{};
    bool valid = false;
};

// domain-owner:shared — instances live on both sides (chiplet L1/L2,
// the host-shared L2 variant, the IOMMU's TLB/PWC); the System binds
// each instance to its owning tag at build time.
class Tlb : public DomainOwned
{
  public:
    /** (evicted entry) -> void; fired when a valid entry is replaced. */
    using EvictListener = InlineFn<void(const TlbEntry &)>;
    /** (inserted entry) -> void. */
    using InsertListener = InlineFn<void(const TlbEntry &)>;

    explicit Tlb(const TlbParams &p);

    /**
     * Look up and touch LRU state.
     * @return the entry on hit, nullopt on miss.
     */
    std::optional<TlbEntry> lookup(ProcessId pid, Vpn vpn);

    /** Look up without perturbing LRU or hit/miss stats. */
    std::optional<TlbEntry> peek(ProcessId pid, Vpn vpn) const;

    /**
     * Install a translation, evicting the LRU way if the set is full.
     * Re-inserting an existing (pid, vpn) updates it in place. The VPN
     * must not be invalid_vpn (the tag of an empty way).
     */
    void insert(const TlbEntry &entry);

    /** Invalidate one entry. @return true if it was present. */
    bool invalidate(ProcessId pid, Vpn vpn);

    /** Invalidate everything (TLB shootdown). */
    void shootdown();

    /**
     * Invalidate every entry owned by @p pid (process-exit shootdown).
     * Fires the evict listener per removed entry so filter mirrors stay
     * coherent. @return the number of entries removed.
     */
    std::uint64_t invalidateAsid(ProcessId pid);

    void setEvictListener(EvictListener l) { on_evict_ = std::move(l); }
    void setInsertListener(InsertListener l) { on_insert_ = std::move(l); }

    /** Visit every valid entry (audits, debug dumps); order is set-major. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t slot = 0; slot < tags_.slots(); ++slot)
            if (tags_.valid(slot))
                fn(entryAt(slot));
    }

    const TlbParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t validEntries() const { return valid_count_; }

    /** Current number of valid entries owned by @p pid. */
    std::uint64_t occupancy(ProcessId pid) const;
    /** High-water mark of @p pid's occupancy over the run. */
    std::uint64_t peakOccupancy(ProcessId pid) const;

    /** Storage cost in bits, for the §VII-K overhead model. */
    std::uint64_t storageBits(std::uint32_t bits_per_entry = 89) const
    {
        return std::uint64_t{params_.entries} * bits_per_entry;
    }

    /** Times the LRU clock reached its limit (see TagStore). */
    std::uint64_t lruRenumbers() const { return tags_.renumbers(); }
    /** Test hook: start the LRU clock at @p c (TagStore::advanceClock). */
    void advanceLruClock(std::uint32_t c) { tags_.advanceClock(c); }

  private:
    /** What a hit returns beyond the key. */
    struct Payload
    {
        Pfn pfn = invalid_pfn;
        CoalInfo coal{};
    };

    /** FlatMap value-initialises new entries, so both start at 0. */
    struct AsidOcc
    {
        std::uint64_t current;
        std::uint64_t peak;
    };

    std::size_t
    find(ProcessId pid, Vpn vpn) const
    {
        return tags_.find(tags_.setOf(vpn), vpn, [&](std::size_t slot) {
            return pids_[slot] == pid;
        });
    }

    TlbEntry
    entryAt(std::size_t slot) const
    {
        return TlbEntry{pids_[slot], tags_.tag(slot), payload_[slot].pfn,
                        payload_[slot].coal, true};
    }

    void occInsert(ProcessId pid);
    void occRemove(ProcessId pid);

    TlbParams params_;
    TagStore<Vpn> tags_;            ///< VPN keys + LRU, set-major
    std::vector<ProcessId> pids_;   ///< per slot, the key's second half
    std::vector<Payload> payload_;  ///< per slot, read on a hit
    std::uint64_t valid_count_ = 0;
    FlatMap<ProcessId, AsidOcc> asid_occ_; ///< per-tenant accounting

    Counter hits_;
    Counter misses_;
    Counter evictions_;

    EvictListener on_evict_;
    InsertListener on_insert_;
};

} // namespace barre

