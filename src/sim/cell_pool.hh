/**
 * @file
 * Size-class free lists for event payloads and out-of-line InlineFn
 * targets.
 *
 * Every scheduled event's callable lives in a pooled block ("cell")
 * from here, as does any InlineFn target too big for its inline
 * buffer. Blocks come in 16-byte size classes up to kMaxPooled bytes;
 * each thread keeps a two-magazine cache per class (an active list and
 * one spare batch of kBatch blocks), so allocate and release are a
 * thread-local pointer pop/push. A block may be released on another
 * thread than the one that allocated it (cross-domain sends): it simply
 * joins the releasing thread's cache. Full batches beyond the spare
 * move to a global depot under a mutex, and an empty cache refills from
 * the depot before carving new blocks from a 64 KiB slab, so a
 * producer/consumer thread pair reaches a steady state that allocates
 * nothing. Pooled memory is never handed back to the system; the
 * footprint is the peak number of live blocks per class.
 *
 * Under AddressSanitizer the free lists are compiled out (kPooled is
 * false) and every block is a plain operator new/delete, so ASan's
 * quarantine keeps catching use-after-free of a fired event's payload
 * and LeakSanitizer reports a block that is never released.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define BARRE_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BARRE_ASAN_BUILD 1
#endif
#endif

namespace barre::cell_pool
{

/** True when blocks are recycled through the free lists. */
#ifdef BARRE_ASAN_BUILD
inline constexpr bool kPooled = false;
#else
inline constexpr bool kPooled = true;
#endif
/** Size-class granularity; also every block's alignment. */
inline constexpr std::size_t kGranule = 16;
/** Largest pooled block; bigger requests go to operator new. */
inline constexpr std::size_t kMaxPooled = 512;
inline constexpr std::size_t kClasses = kMaxPooled / kGranule;
/** Blocks per magazine moved between a thread and the depot. */
inline constexpr std::uint32_t kBatch = 256;

constexpr std::size_t
classOf(std::size_t bytes)
{
    return (bytes + kGranule - 1) / kGranule;
}

namespace detail
{

struct Node
{
    Node *next;
};

struct Magazine
{
    Node *head = nullptr;
    std::uint32_t count = 0;
};

struct ClassCache
{
    Magazine active;
    Magazine spare; ///< empty, or exactly kBatch blocks
};

/** Constant-initialized and trivially destructible: plain TLS access. */
struct ThreadCache
{
    ClassCache cls[kClasses + 1]; ///< index = size class (0 unused)
    char *slab = nullptr;         ///< bump region for new blocks
    char *slab_end = nullptr;
    bool reaper = false; ///< thread-exit flush registered
};

inline thread_local ThreadCache tls_cache;

/** Slow paths (cell_pool.cc): refill an empty class, park a batch. */
void *refill(std::size_t cls);
void spill(std::size_t cls);

} // namespace detail

/** Allocate a block of at least @p bytes, 16-byte aligned. */
inline void *
allocate(std::size_t bytes)
{
    const std::size_t c = classOf(bytes);
    if constexpr (kPooled) {
        if (c <= kClasses) {
            detail::Magazine &m = detail::tls_cache.cls[c].active;
            if (detail::Node *n = m.head) {
                m.head = n->next;
                --m.count;
                return n;
            }
            return detail::refill(c);
        }
    }
    return ::operator new(c * kGranule);
}

/** Return a block from allocate(@p bytes), on any thread. */
inline void
release(void *p, std::size_t bytes) noexcept
{
    const std::size_t c = classOf(bytes);
    if constexpr (kPooled) {
        if (c <= kClasses) {
            detail::Magazine &m = detail::tls_cache.cls[c].active;
            m.head = ::new (p) detail::Node{m.head}; // lint-allow:naked-new
            if (++m.count == kBatch)
                detail::spill(c);
            return;
        }
    }
    ::operator delete(p, c * kGranule);
}

/**
 * Construct a T in a pooled block from @p args; the block goes back to
 * the pool if the constructor throws.
 */
template <typename T, typename... A>
T *
create(A &&...args)
{
    static_assert(alignof(T) <= kGranule,
                  "type is over-aligned for the cell pool");
    void *mem = allocate(sizeof(T));
    try {
        return ::new (mem) T(std::forward<A>(args)...); // lint-allow:naked-new
    } catch (...) {
        release(mem, sizeof(T));
        throw;
    }
}

/** Destroy @p p, made by create<T>(), and return its block. */
template <typename T>
void
destroy(T *p) noexcept
{
    p->~T();
    release(p, sizeof(T));
}

} // namespace barre::cell_pool
