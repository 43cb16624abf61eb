#include "mem/frame_allocator.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace barre
{

FrameAllocator::FrameAllocator(std::uint64_t num_frames)
    : num_frames_(num_frames), free_count_(num_frames)
{
    barre_assert(num_frames > 0, "empty frame space");
    free_bits_.assign(wordCount(), ~std::uint64_t{0});
    // Clear the bits past the end of the frame space.
    std::uint64_t tail = num_frames_ % word_bits;
    if (tail != 0)
        free_bits_.back() = (std::uint64_t{1} << tail) - 1;
}

bool
FrameAllocator::isFree(LocalPfn pfn) const
{
    barre_assert(pfn < num_frames_, "PFN %llu out of range",
                 (unsigned long long)pfn);
    return (free_bits_[pfn / word_bits] >> (pfn % word_bits)) & 1;
}

bool
FrameAllocator::allocate(LocalPfn pfn)
{
    if (!isFree(pfn))
        return false;
    free_bits_[pfn / word_bits] &= ~(std::uint64_t{1} << (pfn % word_bits));
    --free_count_;
    return true;
}

std::optional<LocalPfn>
FrameAllocator::allocateAny()
{
    if (free_count_ == 0)
        return std::nullopt;
    for (std::uint64_t w = scan_hint_ / word_bits; w < wordCount(); ++w) {
        if (free_bits_[w] == 0)
            continue;
        int bit = std::countr_zero(free_bits_[w]);
        LocalPfn pfn = w * word_bits + static_cast<std::uint64_t>(bit);
        allocate(pfn);
        scan_hint_ = pfn;
        return pfn;
    }
    // The hint skipped frames freed below it; rescan once from zero.
    scan_hint_ = 0;
    for (std::uint64_t w = 0; w < wordCount(); ++w) {
        if (free_bits_[w] == 0)
            continue;
        int bit = std::countr_zero(free_bits_[w]);
        LocalPfn pfn = w * word_bits + static_cast<std::uint64_t>(bit);
        allocate(pfn);
        return pfn;
    }
    barre_panic("free_count_ nonzero but no free bit found");
}

bool
FrameAllocator::release(LocalPfn pfn)
{
    if (isFree(pfn))
        return false;
    free_bits_[pfn / word_bits] |= std::uint64_t{1} << (pfn % word_bits);
    ++free_count_;
    if (pfn < scan_hint_)
        scan_hint_ = pfn;
    return true;
}

std::optional<LocalPfn>
FrameAllocator::findCommonFree(std::span<const FrameAllocator *> peers,
                               LocalPfn start_hint)
{
    return findCommonFreeRun(peers, 1, start_hint);
}

std::optional<LocalPfn>
FrameAllocator::findCommonFreeRun(std::span<const FrameAllocator *> peers,
                                  std::uint64_t run_length,
                                  LocalPfn start_hint)
{
    barre_assert(!peers.empty(), "no allocators to intersect");
    barre_assert(run_length >= 1, "empty run requested");

    std::uint64_t frames = peers.front()->numFrames();
    for (const auto *p : peers)
        frames = std::min(frames, p->numFrames());
    if (frames < run_length || start_hint >= frames)
        return std::nullopt;

    // Intersect the peers' bitmaps a word at a time; `run` carries the
    // common free run that reaches the top of the previous word. The
    // smallest peer's bits past its last frame are clear, so the
    // intersection already ends at `frames`.
    const std::uint64_t first = start_hint / word_bits;
    const std::uint64_t last = (frames - 1) / word_bits;
    std::uint64_t run = 0;
    LocalPfn run_start = 0;
    for (std::uint64_t w = first; w <= last; ++w) {
        std::uint64_t bits = ~std::uint64_t{0};
        for (const auto *p : peers) {
            bits &= p->free_bits_[w];
            if (bits == 0)
                break;
        }
        if (w == first)
            bits &= ~std::uint64_t{0} << (start_hint % word_bits);

        const LocalPfn base = w * word_bits;
        int pos = 0;
        while (pos < word_bits) {
            std::uint64_t rest = bits >> pos;
            if (run == 0) {
                if (rest == 0)
                    break;
                pos += std::countr_zero(rest);
                rest = bits >> pos;
                run_start = base + static_cast<std::uint64_t>(pos);
            }
            int ones = std::countr_one(rest);
            run += static_cast<std::uint64_t>(ones);
            if (run >= run_length)
                return run_start;
            pos += ones;
            if (pos < word_bits)
                run = 0; // a taken frame ends the run
        }
    }
    return std::nullopt;
}

std::uint64_t
FrameAllocator::injectFragmentation(double fraction, Rng &rng)
{
    std::uint64_t claimed = 0;
    for (LocalPfn pfn = 0; pfn < num_frames_; ++pfn) {
        if (isFree(pfn) && rng.chance(fraction)) {
            allocate(pfn);
            ++claimed;
        }
    }
    return claimed;
}

} // namespace barre
