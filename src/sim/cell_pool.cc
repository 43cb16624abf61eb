/**
 * @file
 * Cell pool slow paths: magazine exchange with the global depot, slab
 * carving, and the thread-exit flush.
 */

#include "sim/cell_pool.hh"

#include <mutex>
#include <vector>

namespace barre::cell_pool::detail
{

namespace
{

constexpr std::size_t kSlabBytes = std::size_t{64} << 10;

/**
 * Magazines parked by threads that released more than they allocated,
 * per size class, plus every slab ever carved (so the pool's memory
 * stays reachable). Never destroyed: threads may flush their caches
 * into it during process teardown.
 */
struct Depot
{
    std::mutex mu;
    std::vector<Node *> full[kClasses + 1]; ///< kBatch blocks each
    Magazine loose[kClasses + 1]; ///< partial magazines of exited threads
    std::vector<char *> slabs;
};

Depot &
depot()
{
    static Depot *d = new Depot; // lint-allow:naked-new
    return *d;
}

/** Fold a partial magazine into the depot, node by node. */
void
foldLoose(Depot &d, std::size_t cls, Magazine &m)
{
    Magazine &loose = d.loose[cls];
    while (Node *n = m.head) {
        m.head = n->next;
        n->next = loose.head;
        loose.head = n;
        if (++loose.count == kBatch) {
            d.full[cls].push_back(loose.head);
            loose = Magazine{};
        }
    }
    m = Magazine{};
}

/** Hands this thread's cached blocks to the depot when it exits. */
struct Reaper
{
    ~Reaper()
    {
        Depot &d = depot();
        std::lock_guard<std::mutex> lk(d.mu);
        for (std::size_t c = 1; c <= kClasses; ++c) {
            ClassCache &cc = tls_cache.cls[c];
            if (cc.spare.count == kBatch)
                d.full[c].push_back(cc.spare.head);
            cc.spare = Magazine{};
            foldLoose(d, c, cc.active);
        }
    }
};

/** Arrange for this thread's caches to reach the depot at exit. */
void
registerReaper(ThreadCache &tc)
{
    if (!tc.reaper) {
        tc.reaper = true;
        static thread_local Reaper reaper;
        (void)reaper;
    }
}

} // namespace

void *
refill(std::size_t cls)
{
    ThreadCache &tc = tls_cache;
    registerReaper(tc);
    ClassCache &cc = tc.cls[cls];
    if (cc.spare.head == nullptr) {
        Depot &d = depot();
        std::lock_guard<std::mutex> lk(d.mu);
        if (!d.full[cls].empty()) {
            cc.spare = Magazine{d.full[cls].back(), kBatch};
            d.full[cls].pop_back();
        } else if (d.loose[cls].head != nullptr) {
            cc.spare = d.loose[cls];
            d.loose[cls] = Magazine{};
        } else {
            const std::size_t bytes = cls * kGranule;
            if (std::size_t(tc.slab_end - tc.slab) < bytes) {
                tc.slab = static_cast<char *>(::operator new(kSlabBytes));
                tc.slab_end = tc.slab + kSlabBytes;
                d.slabs.push_back(tc.slab);
            }
            void *p = tc.slab;
            tc.slab += bytes;
            return p;
        }
    }
    cc.active = cc.spare;
    cc.spare = Magazine{};
    Node *n = cc.active.head;
    cc.active.head = n->next;
    --cc.active.count;
    return n;
}

void
spill(std::size_t cls)
{
    ThreadCache &tc = tls_cache;
    registerReaper(tc);
    ClassCache &cc = tc.cls[cls];
    if (cc.spare.head != nullptr) {
        Depot &d = depot();
        std::lock_guard<std::mutex> lk(d.mu);
        d.full[cls].push_back(cc.spare.head);
    }
    cc.spare = cc.active;
    cc.active = Magazine{};
}

} // namespace barre::cell_pool::detail
