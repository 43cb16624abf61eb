/**
 * @file
 * Replaces the global operator new/delete with malloc/free wrappers
 * that count every operator new call, for tests asserting that a path
 * allocates nothing in steady state. Include it from exactly one
 * translation unit of a test binary; that binary should hold only
 * allocation tests.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_count
{

inline std::atomic<std::uint64_t> g_news{0};

/**
 * Out of line so GCC does not pair an inlined operator new with free()
 * and report a mismatch (-Wmismatched-new-delete): both replacements
 * below sit on malloc/free.
 */
[[gnu::noinline]] inline void
freeBlock(void *p) noexcept
{
    std::free(p);
}

/** operator new calls made by @p fn. */
template <typename Fn>
std::uint64_t
newsDuring(const Fn &fn)
{
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    fn();
    return g_news.load(std::memory_order_relaxed) - before;
}

} // namespace alloc_count

void *
operator new(std::size_t n)
{
    alloc_count::g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    alloc_count::freeBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    alloc_count::freeBlock(p);
}
