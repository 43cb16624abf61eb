#include "cache/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace barre
{

namespace
{

/** Sets of a checked cache geometry. */
std::uint32_t
setsOf(const CacheParams &p)
{
    barre_assert(std::has_single_bit(p.line_bytes), "line size not 2^n");
    std::uint64_t lines = p.size_bytes / p.line_bytes;
    barre_assert(p.ways > 0 && lines >= p.ways && lines % p.ways == 0,
                 "bad cache geometry");
    return static_cast<std::uint32_t>(lines / p.ways);
}

} // namespace

Cache::Cache(const CacheParams &p)
    : params_(p), line_shift_(static_cast<std::uint32_t>(
                      std::countr_zero(p.line_bytes))),
      tags_(setsOf(p), p.ways)
{}

bool
Cache::access(Addr paddr)
{
    domainCheck("access");
    const Addr line = paddr >> line_shift_;
    const std::uint32_t set = tags_.setOf(line);
    const std::uint64_t tag = tags_.above(line);
    if (tag >= Tags::kEmpty)
        barre_panic("physical address %#llx is beyond the 32-bit line "
                    "tags of a %u-set cache",
                    static_cast<unsigned long long>(paddr), tags_.sets());
    const auto tag32 = static_cast<std::uint32_t>(tag);
    const std::size_t slot = tags_.find(set, tag32);
    if (slot != Tags::npos) {
        tags_.touch(slot);
        ++hits_;
        return true;
    }
    ++misses_;
    tags_.fill(tags_.victim(set, 0, params_.ways), tag32);
    return false;
}

std::uint32_t
Cache::invalidatePage(Pfn pfn, std::uint32_t page_shift)
{
    domainCheck("invalidatePage");
    std::uint32_t dropped = 0;
    const std::uint32_t lines_shift = page_shift - line_shift_;
    for (std::size_t slot = 0; slot < tags_.slots(); ++slot) {
        if (!tags_.valid(slot))
            continue;
        const Addr line = tags_.join(tags_.setOfSlot(slot), tags_.tag(slot));
        if ((line >> lines_shift) == pfn) {
            tags_.clear(slot);
            ++dropped;
        }
    }
    return dropped;
}

void
Cache::invalidateAll()
{
    domainCheck("invalidateAll");
    tags_.clearAll();
}

} // namespace barre
