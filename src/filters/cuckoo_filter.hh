/**
 * @file
 * Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher, CoNEXT'14).
 *
 * F-Barre uses these as the local/remote coalescing-group filters (LCF and
 * RCFs): approximate membership with support for deletion, which Bloom
 * filters lack and TLB insert/evict tracking requires (paper §V-A1).
 *
 * Partial-key cuckoo hashing: an item x stores fingerprint(x) in one of
 * two buckets, i1 = H(x) and i2 = i1 xor H(fingerprint). Table II
 * configures 9-bit fingerprints, 4-way buckets, 256 rows (1024 slots).
 *
 * Each resident fingerprint carries its alternate-bucket offset
 * (H(fingerprint) masked to the row count) in a 16-bit array beside
 * the slots. The offset is hashed once per insert and moves with the
 * fingerprint on every kick, so a relocation step is a swap and an
 * xor. This bounds the geometry at 65536 rows.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "filters/hash.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"

namespace barre
{

struct CuckooFilterParams
{
    std::uint32_t rows = 256;          ///< buckets (power of two)
    std::uint32_t ways = 4;            ///< slots per bucket
    std::uint32_t fingerprint_bits = 9;
    std::uint32_t max_kicks = 128;     ///< relocation budget on insert
    std::uint64_t salt = 0;            ///< per-instance hash salt

    bool operator==(const CuckooFilterParams &) const = default;
};

// domain-owner:chiplet — always embedded in a chiplet's FilterEngine,
// which carries the dynamic ownership binding.
class CuckooFilter
{
  public:
    explicit CuckooFilter(const CuckooFilterParams &p = {});

    /**
     * Insert @p item.
     * @return false only if the filter is too full (insert failed after
     *         max_kicks relocations); the paper's best-effort filter
     *         updates tolerate this.
     */
    bool insert(std::uint64_t item);

    /** @return true if @p item may be present (no false negatives). */
    bool contains(std::uint64_t item) const;

    /**
     * Delete one copy of @p item.
     * @return false if no matching fingerprint was found.
     */
    bool erase(std::uint64_t item);

    /** Remove everything (TLB-shootdown reset, paper §VI). */
    void clear();

    std::uint64_t size() const { return occupied_; }

    /**
     * Number of inserts that failed after exhausting max_kicks, each of
     * which may have silently dropped one resident fingerprint. While
     * this is zero the filter has had no false negatives.
     */
    std::uint64_t lossyInserts() const { return lossy_; }

    std::uint64_t capacity() const
    {
        return std::uint64_t{params_.rows} * params_.ways;
    }
    double loadFactor() const
    {
        return static_cast<double>(occupied_) / capacity();
    }

    /** Storage cost in bits (for the §VII-K overhead model). */
    std::uint64_t
    storageBits() const
    {
        return capacity() * params_.fingerprint_bits;
    }

    const CuckooFilterParams &params() const { return params_; }

    /**
     * Deep audit (sim/invariant.hh): every item successfully inserted
     * and not yet erased or displaced by a lossy full-filter insert
     * must still be locatable — the filter's no-false-negative
     * guarantee — and the occupancy counter must match the table.
     * Tracking state is only maintained under BARRE_CHECK_INVARIANTS;
     * without it the audit is a no-op. Panics (throws) on violation.
     */
    void auditNoFalseNegatives() const;

    /**
     * Test hook: wipe one slot behind the bookkeeping's back, breaking
     * the no-false-negative guarantee on purpose so invariant tests
     * can assert auditNoFalseNegatives() fires.
     */
    void
    debugCorruptSlot(std::uint32_t bucket, std::uint32_t way)
    {
        slots_[slotIndex(bucket, way)] = empty_slot;
    }

  private:
    using Fingerprint = std::uint16_t; // holds up to 16-bit fingerprints
    using Offset = std::uint16_t;      // alternate-bucket xor, < rows

    static constexpr Fingerprint empty_slot = 0;
    static constexpr std::uint64_t kAuditPeriod = 256;
    static constexpr std::uint32_t kMaxRows = 65536; // Offset range

    Fingerprint fingerprintOf(std::uint64_t item) const;
    std::uint32_t bucketOf(std::uint64_t item) const;
    /** i2 = i1 ^ altOffset(fp) for either bucket i1 of @p fp. */
    Offset altOffset(Fingerprint fp) const;

    std::size_t
    slotIndex(std::uint32_t bucket, std::uint32_t way) const
    {
        return std::size_t{bucket} * params_.ways + way;
    }

    /** Lowest way of @p bucket holding @p fp (ways if none). */
    std::uint32_t findWay(std::uint32_t bucket, Fingerprint fp) const;

    bool tryPlace(std::uint32_t bucket, Fingerprint fp, Offset off);
    bool removeFrom(std::uint32_t bucket, Fingerprint fp);

    CuckooFilterParams params_;
    std::uint32_t row_mask_;
    std::vector<Fingerprint> slots_;
    /** offsets_[i] = altOffset(slots_[i]) while slot i is occupied. */
    std::vector<Offset> offsets_;
    std::uint64_t occupied_ = 0;
    std::uint64_t lossy_ = 0;
    Rng kick_rng_;

    /**
     * Shadow multiset of live items, maintained only under
     * BARRE_CHECK_INVARIANTS (see shadowInsert/shadowErase). Items
     * whose fingerprint a lossy insert may have displaced are purged
     * conservatively, so the audit never reports a by-design loss.
     */
    std::vector<std::uint64_t> shadow_;
    std::uint64_t audit_tick_ = 0; ///< BARRE_AUDIT_EVERY site counter

    void shadowInsert(std::uint64_t item);
    void shadowErase(std::uint64_t item);
    void shadowPurgeFingerprint(Fingerprint fp);
};

} // namespace barre
