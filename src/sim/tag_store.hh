/**
 * @file
 * Set-associative tag store shared by the TLBs and the data caches.
 *
 * Storage is structure-of-arrays. The tags of one set sit in one
 * contiguous row (slot = set * ways + way), and one LRU stamp per way
 * sits in a parallel array. A lookup reads only keys and writes one
 * stamp on a hit; the victim scan reads the stamps only on a fill.
 * Owners keep their payloads (the TLB's PID, PFN and coalescing bits)
 * in their own arrays indexed by the same slot number, so payload bytes
 * are read only on a hit.
 *
 * When the associativity is a multiple of 16 (the 64-way L1 TLB, the
 * 16-way L2 TLB and L2 cache), each slot also keeps a one-byte
 * fingerprint of its tag, 0 for an empty way. A lookup compares 16
 * fingerprints at a time (one SSE2 compare, or a plain loop without
 * SSE2) and reads full tags only where a fingerprint matched; the fill
 * finds the lowest empty way the same way. Fingerprints only filter:
 * every answer is still decided by the full tag, in slot order.
 *
 * An empty way holds the all-ones tag (kEmpty). Owners never store it:
 * the TLB rejects invalid_vpn and the cache checks that every line's
 * tag fits below it. find() never matches kEmpty, so a probe for it
 * misses like a probe for any absent key.
 *
 * Replacement is exact LRU. Every touch takes the next value of a
 * per-store 32-bit clock, so the valid ways of one set carry distinct
 * stamps ordered by last touch, and the victim is the lowest-index
 * empty way of the fill range, else its least recently touched way.
 * Only the order inside a set matters, never the stamp values. Before
 * the clock would wrap, every set's valid stamps are renumbered 1..k in
 * their existing order and the clock restarts at `ways`, above every
 * renumbered stamp. No order changes, so no victim changes.
 *
 * The set index is a mask when the set count is a power of two (every
 * shipped geometry) and a modulo otherwise.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace barre
{

template <typename Tag>
class TagStore
{
    static_assert(std::is_unsigned_v<Tag>, "tags are unsigned integers");

  public:
    using Stamp = std::uint32_t;

    static constexpr Tag kEmpty = std::numeric_limits<Tag>::max();
    static constexpr std::size_t npos = ~std::size_t{0};

    TagStore(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), pow2_(std::has_single_bit(sets)),
          set_shift_(pow2_ ? std::countr_zero(sets) : 0),
          tags_(std::size_t{sets} * ways, kEmpty),
          stamps_(std::size_t{sets} * ways, 0),
          fps_(ways % 16 == 0 ? std::size_t{sets} * ways : 0, 0)
    {
        barre_assert(sets > 0 && ways > 0, "degenerate tag store");
    }

    std::uint32_t sets() const { return sets_; }
    /** Number of slots (sets x ways). */
    std::size_t slots() const { return tags_.size(); }

    /** Set that @p key maps to. */
    std::uint32_t
    setOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(pow2_ ? key & (sets_ - 1)
                                                : key % sets_);
    }

    /** @p key without its set index (key / sets), for compact tags. */
    std::uint64_t
    above(std::uint64_t key) const
    {
        return pow2_ ? key >> set_shift_ : key / sets_;
    }

    /** Inverse of setOf/above: the key in @p set whose rest is @p hi. */
    std::uint64_t
    join(std::uint32_t set, std::uint64_t hi) const
    {
        return hi * sets_ + set;
    }

    /** Set that slot @p slot belongs to. */
    std::uint32_t
    setOfSlot(std::size_t slot) const
    {
        return static_cast<std::uint32_t>(slot / ways_);
    }

    Tag tag(std::size_t slot) const { return tags_[slot]; }
    bool valid(std::size_t slot) const { return tags_[slot] != kEmpty; }

    /**
     * First slot of @p set whose tag is @p tag and for which
     * @p also(slot) holds (owners with a second key field check it
     * there); npos when none. Reads keys only: fingerprints, then the
     * tags (and @p also) where a fingerprint matched.
     */
    template <typename Also>
    std::size_t
    find(std::uint32_t set, Tag tag, Also &&also) const
    {
        if (tag == kEmpty)
            return npos;
        const std::size_t base = std::size_t{set} * ways_;
        if (!fps_.empty()) {
            const std::uint8_t f = fingerprint(tag);
            for (std::uint32_t w = 0; w < ways_; w += 16) {
                for (std::uint32_t m = match16(&fps_[base + w], f); m;
                     m &= m - 1) {
                    const std::size_t slot = base + w + std::countr_zero(m);
                    if (tags_[slot] == tag && also(slot))
                        return slot;
                }
            }
            return npos;
        }
        const Tag *row = tags_.data() + base;
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (row[w] == tag && also(base + w))
                return base + w;
        return npos;
    }

    std::size_t
    find(std::uint32_t set, Tag tag) const
    {
        return find(set, tag, [](std::size_t) { return true; });
    }

    /** Mark @p slot the most recently used way of its set. */
    void touch(std::size_t slot) { stamps_[slot] = nextStamp(); }

    /**
     * Fill victim among ways [@p lo, @p hi) of @p set: the lowest-index
     * empty way, else the least recently touched one.
     */
    std::size_t
    victim(std::uint32_t set, std::uint32_t lo, std::uint32_t hi) const
    {
        const std::size_t base = std::size_t{set} * ways_;
        if (!fps_.empty()) {
            for (std::uint32_t w = lo & ~15u; w < hi; w += 16) {
                // Lanes of this block that lie inside [lo, hi).
                const std::uint32_t from = lo > w ? lo - w : 0;
                const std::uint32_t to = std::min(hi - w, 16u);
                const std::uint32_t m = match16(&fps_[base + w], 0) &
                                        ((1u << to) - 1) &
                                        ~((1u << from) - 1);
                if (m)
                    return base + w + std::countr_zero(m);
            }
        } else {
            const Tag *row = tags_.data() + base;
            for (std::uint32_t w = lo; w < hi; ++w)
                if (row[w] == kEmpty)
                    return base + w;
        }
        // Valid stamps are distinct, so the oldest way is the one that
        // holds the minimum; the min pass has no branch to mispredict
        // and no load that depends on the previous iteration.
        const Stamp *st = stamps_.data() + base;
        Stamp oldest = st[lo];
        for (std::uint32_t w = lo + 1; w < hi; ++w)
            oldest = std::min(oldest, st[w]);
        std::uint32_t w = lo;
        while (st[w] != oldest)
            ++w;
        return base + w;
    }

    /** Install @p tag in @p slot as its set's most recently used way. */
    void
    fill(std::size_t slot, Tag tag)
    {
        barre_assert(tag != kEmpty, "the empty-way tag cannot be stored");
        tags_[slot] = tag;
        if (!fps_.empty())
            fps_[slot] = fingerprint(tag);
        touch(slot);
    }

    void
    clear(std::size_t slot)
    {
        tags_[slot] = kEmpty;
        if (!fps_.empty())
            fps_[slot] = 0;
    }

    void
    clearAll()
    {
        std::fill(tags_.begin(), tags_.end(), kEmpty);
        std::fill(fps_.begin(), fps_.end(), 0);
    }

    /** Times the clock reached its limit and the stamps were renumbered. */
    std::uint64_t renumbers() const { return renumbers_; }

    /**
     * Test hook: advance the LRU clock to @p c so that a test can reach
     * the renumbering without 2^32 touches. Never moves it back, which
     * could reorder a set.
     */
    void
    advanceClock(Stamp c)
    {
        barre_assert(c >= clock_, "the LRU clock only moves forward");
        clock_ = c;
    }

  private:
    /** One byte of @p tag's hash, 1..255 (0 marks an empty way). */
    static std::uint8_t
    fingerprint(Tag tag)
    {
        const auto f = static_cast<std::uint8_t>(
            (static_cast<std::uint64_t>(tag) * 0x9e3779b97f4a7c15ull) >> 56);
        return f ? f : 1;
    }

    /** Bit i set where fp[i] == @p b, over the 16 bytes at @p fp. */
    static std::uint32_t
    match16(const std::uint8_t *fp, std::uint8_t b)
    {
#if defined(__SSE2__)
        const __m128i row =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(fp));
        return static_cast<std::uint32_t>(_mm_movemask_epi8(
            _mm_cmpeq_epi8(row, _mm_set1_epi8(static_cast<char>(b)))));
#else
        std::uint32_t m = 0;
        for (std::uint32_t i = 0; i < 16; ++i)
            m |= std::uint32_t{fp[i] == b} << i;
        return m;
#endif
    }

    Stamp
    nextStamp()
    {
        if (clock_ == std::numeric_limits<Stamp>::max())
            renumber();
        return ++clock_;
    }

    /** Rewrite each set's valid stamps as 1..k, keeping their order. */
    void
    renumber()
    {
        std::vector<std::uint32_t> order;
        order.reserve(ways_);
        for (std::size_t base = 0; base < tags_.size(); base += ways_) {
            order.clear();
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (tags_[base + w] != kEmpty)
                    order.push_back(w);
            std::sort(order.begin(), order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return stamps_[base + a] < stamps_[base + b];
                      });
            for (std::uint32_t w = 0; w < ways_; ++w)
                stamps_[base + w] = 0;
            for (std::size_t r = 0; r < order.size(); ++r)
                stamps_[base + order[r]] = static_cast<Stamp>(r + 1);
        }
        clock_ = ways_;
        ++renumbers_;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool pow2_;
    std::uint32_t set_shift_;
    std::vector<Tag> tags_;     ///< sets x ways, row-major; kEmpty = free
    std::vector<Stamp> stamps_; ///< last-touch stamp per slot
    /** Per slot, a tag hash byte (0 = empty); only when ways % 16 == 0. */
    std::vector<std::uint8_t> fps_;
    Stamp clock_ = 0;
    std::uint64_t renumbers_ = 0;
};

} // namespace barre
