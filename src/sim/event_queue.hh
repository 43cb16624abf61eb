/**
 * @file
 * A deterministic discrete-event queue with a hierarchical front.
 *
 * Events are closures scheduled at an absolute Tick. Events scheduled
 * for the same tick fire in scheduling order (a monotone sequence
 * number breaks ties), which keeps simulations reproducible across
 * runs and platforms.
 *
 * The queue is two-level. A *ladder* of per-tick FIFO buckets covers
 * the sliding near-future window (now, now + kWindow): scheduling into
 * the window is an O(1) push into bucket `when & (kWindow-1)`, and
 * almost all simulator traffic — TLB probe hand-offs, IOMMU walk-queue
 * hops, link hops — lands there. A hand-rolled 4-ary min-heap remains
 * as the overflow backstop for far-future events (DRAM/PCIe completions
 * under congestion, coarse timeouts). A FIFO fast lane holds events
 * scheduled *at* the current tick; when time advances to a bucket's
 * tick, that bucket's entries are copied into the lane, so every
 * vector is allocated once, to its own peak, and reused.
 *
 * Determinism: firing order is the exact total order (when, seq) no
 * matter which structure holds an event. The key property is that for
 * any tick T, routing of new events at T moves monotonically from heap
 * (T outside the window) to bucket (T inside) to lane (T == now) as
 * now advances — so every heap entry at T carries a smaller seq than
 * every bucket entry at T, and the existing lane-vs-heap tie-break
 * (fireNowOrTiedHeapTop) restores the global order after a bucket is
 * promoted into the lane. auditInvariants() checks this boundary.
 *
 * Event payloads live in EventCells (sim/event_cell.hh): the callable
 * passed to schedule() is constructed once in a pooled cell, invoked in
 * place and destroyed in place. The lane, buckets and heap hold only
 * 24-byte POD entries (tick, packed seq+tag, cell pointer), so vector
 * growth, bucket promotion and heap sifts never move a closure.
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/domain.hh"
#include "sim/event_cell.hh"
#include "sim/inline_fn.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace barre
{

/**
 * Queue implementation selector. `heap_only` disables the ladder front
 * (every future event goes through the 4-ary heap); it exists so tests
 * and benches can prove the ladder is performance-only — firing order
 * and RunMetrics are bitwise identical between the two modes.
 */
enum class QueueMode
{
    ladder,
    heap_only,
};

/**
 * Central event queue; one per simulated system.
 *
 * Usage:
 * @code
 *   EventQueue eq;
 *   eq.schedule(100, [] { ... });
 *   eq.run();          // until empty
 * @endcode
 */
class EventQueue
{
  public:
    /** The stored-continuation type components pass along (`done`). */
    using Callback = InlineFn<void()>;

    explicit EventQueue(QueueMode mode = QueueMode::ladder) : mode_(mode)
    {
        heap_.reserve(kReserve);
    }

    /** Destroys the payloads of events that never fired. */
    ~EventQueue()
    {
        for (const Entry &e : heap_)
            e.cell->discard();
        for (std::size_t i = now_head_; i < now_lane_.size(); ++i)
            now_lane_[i].cell->discard();
        for (const std::vector<Entry> &b : buckets_)
            for (const Entry &e : b)
                e.cell->discard();
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return tagged_ ? tagged_->now() : now_; }

    /** Implementation mode chosen at construction. */
    QueueMode mode() const { return mode_; }

    /** Number of events not yet fired. */
    std::size_t
    pending() const
    {
        if (tagged_)
            return tagged_->pending();
        return heap_.size() + bucket_count_ + (now_lane_.size() - now_head_);
    }

    bool
    empty() const
    {
        if (tagged_)
            return tagged_->empty();
        return heap_.empty() && bucket_count_ == 0 && nowLaneEmpty();
    }

    /** Total events fired over the queue's lifetime. */
    std::uint64_t
    fired() const
    {
        return tagged_ ? tagged_->fired() : fired_total_;
    }

    // -- partitioned (conservative-PDES) mode -------------------------

    /**
     * Switch this queue into partitioned mode: events carry sequencing
     * tags grouped into domains and fire in composite-key order (see
     * sim/domain.hh). Must be called before anything is scheduled.
     * run()/runUntil() become unavailable; the harness DomainScheduler
     * drives the epochs instead.
     */
    void
    enableTags(std::vector<std::uint32_t> tag_domain,
               std::uint32_t domains)
    {
        barre_assert(!tagged_ && now_ == 0 && fired_total_ == 0 &&
                         empty(),
                     "enableTags on a queue that has been used");
        tagged_ = std::make_unique<TaggedEngine>(std::move(tag_domain),
                                                 domains);
    }

    bool tagged() const { return tagged_ != nullptr; }

    /** The partitioned-mode engine, or nullptr in legacy mode. */
    TaggedEngine *taggedEngine() { return tagged_.get(); }
    const TaggedEngine *taggedEngine() const { return tagged_.get(); }

    /**
     * Schedule @p fn to execute as tag @p dst at tick @p when. Legacy
     * mode has only one sequence, but still stamps @p dst on the entry
     * so the domain-ownership audit sees the delivery execute under
     * the destination's tag (sim/domain_guard.hh).
     */
    template <EventCallable F>
    void
    scheduleCross(SeqTag dst, Tick when, F &&fn)
    {
        if (tagged_) {
            tagged_->scheduleCross(dst, when, std::forward<F>(fn));
            return;
        }
        barre_assert(when >= now_,
                     "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when, (unsigned long long)now_);
        scheduleTagged(when, dst, EventCell::make(std::forward<F>(fn)));
    }

    /**
     * Send through a shared resource owned by tag @p owner: resolve
     * @p hook 's arbitration in deterministic global order and deliver
     * @p fn at the resulting tick. Legacy mode arbitrates inline.
     * @return the delivery tick, or 0 when staged for the epoch
     *         barrier (partitioned multi-domain mode).
     */
    template <EventCallable F>
    Tick
    stageArb(SeqTag owner, ArbHook &hook, std::uint64_t bytes, F &&fn)
    {
        if (tagged_) {
            return tagged_->stageArb(owner, hook, bytes,
                                     std::forward<F>(fn));
        }
        const Tick when = hook.arbitrate(now_, bytes);
        scheduleTagged(when, owner, EventCell::make(std::forward<F>(fn)));
        return when;
    }

    /**
     * RAII execution-context bracket for setup-time scheduling on
     * behalf of tag @p tag. Legacy mode only sets the thread's current
     * tag (for ownership attribution); the inner TaggedEngine scope
     * saved the full context and restores it on exit either way.
     */
    class TagScope
    {
      public:
        TagScope(EventQueue &eq, SeqTag tag)
            : scope_(eq.tagged_.get(), tag)
        {
            if (!eq.tagged_)
                detail::tls_exec.tag = tag;
        }

      private:
        TaggedEngine::TagScope scope_;
    };

    /**
     * Schedule @p fn to fire at absolute tick @p when. The callable is
     * constructed once, in its event cell, straight from @p fn.
     * @pre when >= now()
     */
    template <EventCallable F>
    void
    schedule(Tick when, F &&fn)
    {
        if (tagged_) {
            tagged_->schedule(when, std::forward<F>(fn));
            return;
        }
        barre_assert(when >= now_,
                     "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when, (unsigned long long)now_);
        scheduleTagged(when, detail::tls_exec.tag,
                       EventCell::make(std::forward<F>(fn)));
    }

    /**
     * Schedule @p fn to fire @p delay cycles from now.
     *
     * Fast path: a relative delay can never land in the past, so the
     * range assert is skipped; zero-delay events go to the FIFO fast
     * lane and in-window delays to their ladder bucket, skipping the
     * heap entirely.
     */
    template <EventCallable F>
    void
    scheduleAfter(Cycles delay, F &&fn)
    {
        if (tagged_) {
            tagged_->scheduleAfter(delay, std::forward<F>(fn));
            return;
        }
        scheduleTagged(now_ + delay, detail::tls_exec.tag,
                       EventCell::make(std::forward<F>(fn)));
    }

    /**
     * Fire events until the queue drains or @p limit events have run.
     * @return number of events executed.
     */
    std::uint64_t
    run(std::uint64_t limit = ~std::uint64_t{0})
    {
        barre_assert(!tagged_,
                     "run() on a partitioned queue; use the harness "
                     "DomainScheduler");
        FireScope tag_restore;
        std::uint64_t fired = 0;
        while (fired < limit) {
            if (nowLaneEmpty()) {
                Tick next;
                const Next from = peekNext(next);
                if (from == Next::none)
                    break;
                now_ = next;
                if (from == Next::bucket) {
                    promoteBucket(next);
                    continue; // promotion fires nothing by itself
                }
                fire(heapPop());
            } else {
                fireNowOrTiedHeapTop();
            }
            ++fired;
            BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                              auditInvariants());
        }
        fired_total_ += fired;
        return fired;
    }

    /**
     * Fire events with tick <= @p until, then stop.
     * Time advances to @p until even if the queue drains earlier.
     * @return number of events executed.
     */
    std::uint64_t
    runUntil(Tick until)
    {
        barre_assert(!tagged_,
                     "runUntil() on a partitioned queue; use the "
                     "harness DomainScheduler");
        FireScope tag_restore;
        std::uint64_t fired = 0;
        for (;;) {
            if (nowLaneEmpty()) {
                Tick next;
                Next from = peekNext(next);
                if (from == Next::none || next > until)
                    break;
                now_ = next;
                if (from == Next::bucket) {
                    promoteBucket(next);
                    continue;
                }
                fire(heapPop());
            } else if (now_ <= until) {
                fireNowOrTiedHeapTop();
            } else {
                break;
            }
            ++fired;
            BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                              auditInvariants());
        }
        if (now_ < until)
            now_ = until;
        fired_total_ += fired;
        return fired;
    }

    /**
     * Deep audit of the queue's structural invariants (see
     * sim/invariant.hh): the 4-ary heap property on (when, seq), no
     * entry in the past, the fast lane holding only current-tick
     * entries in FIFO (strictly increasing seq) order, every ladder
     * bucket holding exactly one in-window tick in FIFO order with a
     * consistent occupancy bitmap, and the bucket↔heap boundary — any
     * heap entry sharing a tick with a bucket must predate (smaller
     * seq than) everything in that bucket, or the promotion tie-break
     * would misorder them. Panics (throws) on violation. O(pending).
     */
    void
    auditInvariants() const
    {
        barre_assert(seq_ < (std::uint64_t{1} << (64 - kTagBits)),
                     "event sequence number overflowed its %d bits",
                     int(64 - kTagBits));
        const std::size_t n = heap_.size();
        for (std::size_t i = 0; i < n; ++i) {
            barre_assert(heap_[i].when >= now_,
                         "heap entry %zu at tick %llu is in the past "
                         "(now %llu)",
                         i, (unsigned long long)heap_[i].when,
                         (unsigned long long)now_);
            if (i == 0)
                continue;
            const std::size_t p = (i - 1) >> 2;
            barre_assert(!before(heap_[i], heap_[p]),
                         "4-ary heap order violated at index %zu", i);
        }
        barre_assert(now_head_ <= now_lane_.size(),
                     "fast-lane head past its end");
        for (std::size_t i = now_head_; i < now_lane_.size(); ++i) {
            barre_assert(now_lane_[i].when == now_,
                         "fast-lane entry %zu at tick %llu, not now "
                         "(%llu)",
                         i, (unsigned long long)now_lane_[i].when,
                         (unsigned long long)now_);
            barre_assert(i == now_head_ ||
                         now_lane_[i - 1].order < now_lane_[i].order,
                         "fast lane is not FIFO at entry %zu", i);
        }
        auditLadder();
    }

    /**
     * Test hook: flip one slot's occupancy bit behind the bucket
     * storage's back, desynchronizing the bitmap on purpose so
     * invariant tests can assert auditInvariants() fires.
     */
    void
    debugCorruptLadderBitmap(std::size_t slot)
    {
        bucket_bits_[slot >> 6] ^= std::uint64_t{1} << (slot & 63);
    }

  private:
    static constexpr int kTagBits = 16;

    /**
     * One pending event. `order` packs the sequence number above the
     * tag; sequence numbers are unique, so comparing `order` compares
     * seq. The tag is the one whose state the callback mutates.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t order; ///< seq << kTagBits | tag
        EventCell *cell;

        SeqTag tag() const { return SeqTag(order); }
    };
    static_assert(sizeof(Entry) <= 24 &&
                      std::is_trivially_copyable_v<Entry>,
                  "queue entries must stay small PODs; the payload "
                  "belongs in its EventCell");
    static_assert(sizeof(SeqTag) * 8 == kTagBits);

    /**
     * Route @p cell, carrying @p tag, to the lane/ladder/heap. The tag
     * plays no part in firing order — (when, seq) stays the exact
     * total order, so results are bitwise identical to a tagless
     * queue — it only feeds currentExecTag() during the callback so
     * the domain audit can attribute accesses.
     */
    void
    scheduleTagged(Tick when, SeqTag tag, EventCell *cell)
    {
        const Entry e{when, (seq_++ << kTagBits) | tag, cell};
        if (when == now_)
            now_lane_.push_back(e);
        else if (mode_ == QueueMode::ladder && when - now_ < kWindow)
            pushBucket(e);
        else
            heapPush(e);
    }

    /** Run @p e 's callback in place under its tag; frees its cell. */
    static void
    fire(Entry e)
    {
        detail::tls_exec.tag = e.tag();
        e.cell->fire();
    }

    /**
     * Restores the thread's current-tag slot when a run loop exits
     * (normally or by a panic throw), so a fired event's tag never
     * leaks into setup/harvest code or the next simulation.
     */
    class FireScope
    {
      public:
        FireScope() : saved_(detail::tls_exec.tag) {}
        ~FireScope() { detail::tls_exec.tag = saved_; }

        FireScope(const FireScope &) = delete;
        FireScope &operator=(const FireScope &) = delete;

      private:
        SeqTag saved_;
    };

    enum class Next
    {
        none,
        heap,
        bucket,
    };

    static constexpr std::size_t kReserve = 1024;
    static constexpr std::uint64_t kAuditPeriod = 4096;
    /** Ladder window length in ticks; must stay a power of two. */
    static constexpr Tick kWindow = 256;
    static constexpr Tick kSlotMask = kWindow - 1;
    static constexpr std::size_t kBitmapWords = kWindow / 64;

    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.order < b.order;
    }

    /**
     * All entries in the fast lane carry when == now_: they are pushed
     * at the current tick, and now_ cannot advance while the lane is
     * non-empty (an event with a later tick is never the minimum then).
     */
    bool nowLaneEmpty() const { return now_head_ == now_lane_.size(); }

    /**
     * Append @p e to the ladder bucket for its tick.
     * @pre now_ < e.when && e.when - now_ < kWindow (so the slot is
     * free of any other tick: the window spans less than one full
     * rotation, and slot now_ & kSlotMask — the only aliasing
     * candidate — is never occupied because tick now_ routes to the
     * lane and tick now_ + kWindow is outside the window).
     */
    void
    pushBucket(const Entry &e)
    {
        const std::size_t slot = e.when & kSlotMask;
        std::vector<Entry> &b = buckets_[slot];
        if (b.empty())
            bucket_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        b.push_back(e);
        ++bucket_count_;
    }

    /**
     * Earliest tick present in the ladder, if any. Scanning slots in
     * circular order starting just past now_ visits window ticks in
     * increasing order, so the first occupied slot is the minimum; the
     * occupancy bitmap turns the scan into a handful of word tests.
     */
    Next
    nextBucketTick(Tick &out) const
    {
        if (bucket_count_ == 0)
            return Next::none;
        const std::size_t start = (now_ + 1) & kSlotMask;
        std::size_t off = 0;
        while (off < kWindow) {
            const std::size_t slot = (start + off) & kSlotMask;
            const std::uint64_t word = bucket_bits_[slot >> 6];
            const std::uint64_t bits = word >> (slot & 63);
            if (bits != 0) {
                const std::size_t hit = slot + std::countr_zero(bits);
                out = buckets_[hit].front().when;
                return Next::bucket;
            }
            off += 64 - (slot & 63);
        }
        barre_panic("ladder count %zu but no occupied bucket",
                    bucket_count_);
    }

    /** Earliest pending tick and which structure holds it. */
    Next
    peekNext(Tick &out) const
    {
        Tick bucket_tick;
        const Next from_bucket = nextBucketTick(bucket_tick);
        if (heap_.empty()) {
            out = bucket_tick;
            return from_bucket;
        }
        if (from_bucket == Next::none ||
            heap_.front().when < bucket_tick) {
            out = heap_.front().when;
            return Next::heap;
        }
        // Tie: promote the bucket; heap entries at the same tick have
        // smaller seqs and win inside fireNowOrTiedHeapTop.
        out = bucket_tick;
        return Next::bucket;
    }

    /**
     * Move the bucket for tick @p when (== now_) into the empty fast
     * lane. Entries are 24-byte PODs, so the copy is a memcpy; each
     * vector keeps its own storage and grows only to its own peak, so
     * steady-state operation allocates nothing.
     */
    void
    promoteBucket(Tick when)
    {
        const std::size_t slot = when & kSlotMask;
        std::vector<Entry> &b = buckets_[slot];
        now_lane_.assign(b.begin(), b.end());
        now_head_ = 0;
        bucket_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        bucket_count_ -= b.size();
        b.clear();
    }

    /**
     * Fire the fast-lane head — unless a heap entry at the same tick
     * was scheduled earlier (smaller seq); it wins the FIFO tie-break.
     */
    void
    fireNowOrTiedHeapTop()
    {
        if (!heap_.empty() && heap_.front().when == now_ &&
            heap_.front().order < now_lane_[now_head_].order) {
            fire(heapPop());
            return;
        }
        const Entry e = now_lane_[now_head_++];
        if (nowLaneEmpty()) {
            now_lane_.clear();
            now_head_ = 0;
        }
        fire(e);
    }

    void
    heapPush(Entry e)
    {
        std::size_t i = heap_.size();
        heap_.push_back(e);
        // Sift the hole up, moving parents down.
        while (i > 0) {
            std::size_t p = (i - 1) >> 2;
            if (!before(e, heap_[p]))
                break;
            heap_[i] = heap_[p];
            i = p;
        }
        heap_[i] = e;
    }

    /** Remove and return the minimum (when, seq) entry. */
    Entry
    heapPop()
    {
        const Entry out = heap_.front();
        const Entry tail = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n > 0) {
            std::size_t i = 0;
            for (;;) {
                std::size_t c = 4 * i + 1;
                if (c >= n)
                    break;
                std::size_t m = c;
                const std::size_t end = c + 4 < n ? c + 4 : n;
                for (++c; c < end; ++c) {
                    if (before(heap_[c], heap_[m]))
                        m = c;
                }
                if (!before(heap_[m], tail))
                    break;
                heap_[i] = heap_[m];
                i = m;
            }
            heap_[i] = tail;
        }
        return out;
    }

    /** Ladder-specific half of auditInvariants(). */
    void
    auditLadder() const
    {
        std::size_t counted = 0;
        for (std::size_t slot = 0; slot < kWindow; ++slot) {
            const std::vector<Entry> &b = buckets_[slot];
            const bool bit = (bucket_bits_[slot >> 6] >>
                              (slot & 63)) & 1;
            barre_assert(bit == !b.empty(),
                         "ladder bitmap disagrees with bucket %zu", slot);
            if (b.empty())
                continue;
            barre_assert(mode_ == QueueMode::ladder,
                         "heap-only queue has an occupied bucket");
            counted += b.size();
            const Tick when = b.front().when;
            barre_assert((when & kSlotMask) == slot,
                         "bucket %zu holds tick %llu, wrong slot", slot,
                         (unsigned long long)when);
            barre_assert(when > now_ && when - now_ < kWindow,
                         "bucket %zu tick %llu outside window (now "
                         "%llu)",
                         slot, (unsigned long long)when,
                         (unsigned long long)now_);
            for (std::size_t i = 0; i < b.size(); ++i) {
                barre_assert(b[i].when == when,
                             "bucket %zu mixes ticks %llu and %llu",
                             slot, (unsigned long long)when,
                             (unsigned long long)b[i].when);
                barre_assert(i == 0 || b[i - 1].order < b[i].order,
                             "bucket %zu is not FIFO at entry %zu",
                             slot, i);
            }
        }
        barre_assert(counted == bucket_count_,
                     "ladder count %zu != sum of buckets %zu",
                     bucket_count_, counted);
        // Bucket↔heap boundary: heap entries must predate any bucket
        // entries at the same tick (routing to a tick's bucket starts
        // strictly after routing to the heap stops).
        for (const Entry &e : heap_) {
            if (e.when <= now_ || e.when - now_ >= kWindow)
                continue;
            const std::vector<Entry> &b = buckets_[e.when & kSlotMask];
            if (b.empty() || b.front().when != e.when)
                continue;
            barre_assert(e.order < b.front().order,
                         "heap entry at tick %llu (seq %llu) scheduled "
                         "after bucket entry (seq %llu)",
                         (unsigned long long)e.when,
                         (unsigned long long)(e.order >> kTagBits),
                         (unsigned long long)(b.front().order >> kTagBits));
        }
    }

    std::vector<Entry> heap_;     ///< 4-ary min-heap on (when, seq)
    std::vector<Entry> now_lane_; ///< FIFO of events at tick now_
    std::size_t now_head_ = 0;    ///< first unfired fast-lane entry
    /** Per-tick FIFO buckets for the (now, now + kWindow) window. */
    std::array<std::vector<Entry>, kWindow> buckets_;
    /** One bit per bucket: occupied? Drives the next-tick scan. */
    std::array<std::uint64_t, kBitmapWords> bucket_bits_{};
    std::size_t bucket_count_ = 0; ///< entries across all buckets
    QueueMode mode_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t fired_total_ = 0;
    std::uint64_t audit_tick_ = 0; ///< BARRE_AUDIT_EVERY site counter
    /** Partitioned-mode engine; nullptr = legacy serial queue. */
    std::unique_ptr<TaggedEngine> tagged_;
};

/**
 * A stored continuation with an ordinary capture must not need an
 * out-of-line block. Guard against regressing the inline buffer.
 */
static_assert(
    EventQueue::Callback::fitsInline<decltype([p = (void *)nullptr,
                                               q = (void *)nullptr,
                                               t = Tick{0}] {})>(),
    "EventQueue::Callback must store small captures inline");

} // namespace barre
