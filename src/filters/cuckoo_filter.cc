#include "filters/cuckoo_filter.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace barre
{

CuckooFilter::CuckooFilter(const CuckooFilterParams &p)
    : params_(p), kick_rng_(p.salt ^ 0xcafef00dull)
{
    barre_assert(std::has_single_bit(params_.rows),
                 "cuckoo filter rows must be a power of two");
    barre_assert(params_.rows <= kMaxRows,
                 "cuckoo filter rows %u exceed %u: alternate-bucket "
                 "offsets are stored in 16 bits",
                 params_.rows, kMaxRows);
    barre_assert(params_.ways >= 1, "need at least one way");
    barre_assert(params_.fingerprint_bits >= 1 &&
                 params_.fingerprint_bits <= 16,
                 "fingerprint must be 1..16 bits");
    row_mask_ = params_.rows - 1;
    slots_.assign(std::size_t{params_.rows} * params_.ways, empty_slot);
    offsets_.assign(slots_.size(), 0);
}

CuckooFilter::Fingerprint
CuckooFilter::fingerprintOf(std::uint64_t item) const
{
    std::uint64_t h = mixHash(item, params_.salt + 1);
    auto fp = static_cast<Fingerprint>(
        h & ((std::uint64_t{1} << params_.fingerprint_bits) - 1));
    // Zero is the empty marker; remap to 1 (slightly skews fp 1; fine).
    return fp == empty_slot ? Fingerprint{1} : fp;
}

std::uint32_t
CuckooFilter::bucketOf(std::uint64_t item) const
{
    return static_cast<std::uint32_t>(mixHash(item, params_.salt)) &
           row_mask_;
}

CuckooFilter::Offset
CuckooFilter::altOffset(Fingerprint fp) const
{
    return static_cast<Offset>(mixHash(fp, params_.salt) & row_mask_);
}

std::uint32_t
CuckooFilter::findWay(std::uint32_t bucket, Fingerprint fp) const
{
    const Fingerprint *s = &slots_[slotIndex(bucket, 0)];
    if (params_.ways == 4) {
        // Table II geometry: the bucket is one 64-bit word of four
        // 16-bit lanes. Lanes equal to fp become zero; the borrow trick
        // flags zero lanes, and the lowest flag is always exact.
        static_assert(std::endian::native == std::endian::little);
        constexpr std::uint64_t lsb = 0x0001000100010001ull;
        std::uint64_t lanes;
        std::memcpy(&lanes, s, sizeof lanes);
        lanes ^= fp * lsb;
        std::uint64_t zero = (lanes - lsb) & ~lanes & (lsb << 15);
        return zero ? static_cast<std::uint32_t>(std::countr_zero(zero)) / 16
                    : 4;
    }
    std::uint32_t w = 0;
    while (w < params_.ways && s[w] != fp)
        ++w;
    return w;
}

bool
CuckooFilter::tryPlace(std::uint32_t bucket, Fingerprint fp, Offset off)
{
    std::uint32_t w = findWay(bucket, empty_slot);
    if (w == params_.ways)
        return false;
    std::size_t i = slotIndex(bucket, w);
    slots_[i] = fp;
    offsets_[i] = off;
    ++occupied_;
    return true;
}

bool
CuckooFilter::removeFrom(std::uint32_t bucket, Fingerprint fp)
{
    std::uint32_t w = findWay(bucket, fp);
    if (w == params_.ways)
        return false;
    slots_[slotIndex(bucket, w)] = empty_slot;
    --occupied_;
    return true;
}

bool
CuckooFilter::insert(std::uint64_t item)
{
    Fingerprint fp = fingerprintOf(item);
    Offset off = altOffset(fp);
    std::uint32_t i1 = bucketOf(item);
    std::uint32_t i2 = i1 ^ off;

    if (tryPlace(i1, fp, off) || tryPlace(i2, fp, off)) {
        BARRE_AUDIT(shadowInsert(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
        return true;
    }

    // Both buckets full: relocate a victim, alternating buckets. The
    // victim's offset travels with it, so its other bucket is one xor.
    std::uint32_t bucket = (kick_rng_.next() & 1) ? i2 : i1;
    for (std::uint32_t kick = 0; kick < params_.max_kicks; ++kick) {
        std::uint32_t victim_way =
            static_cast<std::uint32_t>(kick_rng_.below(params_.ways));
        std::size_t i = slotIndex(bucket, victim_way);
        std::swap(fp, slots_[i]);
        std::swap(off, offsets_[i]);
        bucket ^= off;
        if (tryPlace(bucket, fp, off)) {
            BARRE_AUDIT(shadowInsert(item));
            BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                              auditNoFalseNegatives());
            return true;
        }
    }
    // Filter too full; the displaced fingerprint is dropped. This makes
    // the failure lossy (a prior item may now miss), matching hardware
    // filters that bound insertion work. Callers treat this as an
    // unfortunate-but-safe event (filters are hints, verified at the TLB).
    // The inserted item itself landed in the table along the kick chain;
    // any shadow item sharing the dropped fingerprint may be the loser,
    // so all of them leave the audit's tracking set.
    ++lossy_;
    BARRE_AUDIT(shadowInsert(item));
    BARRE_AUDIT(shadowPurgeFingerprint(fp));
    return false;
}

bool
CuckooFilter::contains(std::uint64_t item) const
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t i1 = bucketOf(item);
    if (findWay(i1, fp) < params_.ways)
        return true;
    return findWay(i1 ^ altOffset(fp), fp) < params_.ways;
}

bool
CuckooFilter::erase(std::uint64_t item)
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t i1 = bucketOf(item);
    bool removed =
        removeFrom(i1, fp) || removeFrom(i1 ^ altOffset(fp), fp);
    if (removed) {
        BARRE_AUDIT(shadowErase(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
    }
    return removed;
}

void
CuckooFilter::clear()
{
    std::fill(slots_.begin(), slots_.end(), empty_slot);
    occupied_ = 0;
    lossy_ = 0;
    shadow_.clear();
}

void
CuckooFilter::auditNoFalseNegatives() const
{
    std::uint64_t filled = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i] == empty_slot)
            continue;
        ++filled;
        barre_assert(offsets_[i] == altOffset(slots_[i]),
                     "cuckoo slot %llu carries offset %u, not its "
                     "fingerprint's %u",
                     (unsigned long long)i, unsigned{offsets_[i]},
                     unsigned{altOffset(slots_[i])});
    }
    barre_assert(filled == occupied_,
                 "cuckoo occupancy counter %llu != %llu filled slots",
                 (unsigned long long)occupied_,
                 (unsigned long long)filled);
    for (std::uint64_t item : shadow_) {
        barre_assert(contains(item),
                     "cuckoo filter lost item %llx: inserted fingerprint "
                     "not locatable in either bucket",
                     (unsigned long long)item);
    }
}

void
CuckooFilter::shadowInsert(std::uint64_t item)
{
    shadow_.push_back(item);
}

void
CuckooFilter::shadowErase(std::uint64_t item)
{
    auto it = std::find(shadow_.begin(), shadow_.end(), item);
    if (it != shadow_.end()) {
        *it = shadow_.back();
        shadow_.pop_back();
        return;
    }
    // Erasing an item we never tracked still removed one copy of its
    // fingerprint — which some tracked item may have depended on.
    shadowPurgeFingerprint(fingerprintOf(item));
}

void
CuckooFilter::shadowPurgeFingerprint(Fingerprint fp)
{
    shadow_.erase(std::remove_if(shadow_.begin(), shadow_.end(),
                                 [&](std::uint64_t x) {
                                     return fingerprintOf(x) == fp;
                                 }),
                  shadow_.end());
}

} // namespace barre
