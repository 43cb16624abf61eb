/**
 * @file
 * Miss-status holding registers shared by TLBs and caches.
 *
 * Tracks outstanding misses keyed by (process, address-ish key). Requests
 * to a key already in flight merge onto that entry; a full MSHR file
 * rejects new keys, which the requester must retry (modeling the
 * back-pressure examined in paper Fig 4).
 *
 * Each entry's waiters form a FIFO chain through one pooled array of
 * waiter nodes with a free list, so once the pool has grown to the
 * peak number of outstanding waiters, allocate/merge/complete cycles
 * make no heap allocation.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace barre
{

namespace mshr_detail
{

inline constexpr std::uint32_t kNone = ~std::uint32_t{0};

/** One MSHR entry's waiters: first and last node of its chain. */
struct Chain
{
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
};

} // namespace mshr_detail

/**
 * @tparam Result value delivered to waiting requesters on completion.
 */
// domain-owner:shared — bound per instance (chiplet L2 MSHRs vs the
// host-shared L2 TLB's MSHR file) by the System.
template <typename Result>
class Mshr : public DomainOwned
{
  public:
    using Callback = InlineFn<void(const Result &)>;
    using Key = std::uint64_t;

    explicit Mshr(std::uint32_t capacity) : capacity_(capacity)
    {
        barre_assert(capacity > 0, "zero-capacity MSHR file");
    }

    static Key
    keyOf(ProcessId pid, std::uint64_t addr_key)
    {
        return (std::uint64_t{pid} << 48) ^ addr_key;
    }

    /** Outcome of trying to register a miss. */
    enum class Outcome
    {
        primary,   ///< new entry allocated; caller must launch the fill
        secondary, ///< merged onto an in-flight entry
        rejected,  ///< MSHR file full; caller must retry later
    };

    Outcome
    allocate(Key key, Callback cb)
    {
        domainCheck("allocate");
        if (Chain *chain = entries_.find(key)) {
            append(*chain, std::move(cb));
            ++secondary_;
            return Outcome::secondary;
        }
        if (entries_.size() >= capacity_) {
            ++rejected_;
            return Outcome::rejected;
        }
        append(entries_[key], std::move(cb));
        ++primary_;
        return Outcome::primary;
    }

    /**
     * Complete an in-flight miss, firing all merged callbacks in
     * registration order.
     */
    void
    complete(Key key, const Result &result)
    {
        domainCheck("complete");
        const Chain *chain = entries_.find(key);
        barre_assert(chain != nullptr, "completing unknown MSHR entry");
        // Detach first: callbacks may allocate the same key again.
        std::uint32_t at = chain->head;
        entries_.erase(key);
        while (at != kNone) {
            // Free the node before the call: a callback that allocates
            // may reuse it, or grow the pool and move every node.
            Callback cb = std::move(waiters_[at].cb);
            const std::uint32_t next = waiters_[at].next;
            waiters_[at].next = free_;
            free_ = at;
            at = next;
            cb(result);
        }
    }

    bool inFlight(Key key) const { return entries_.contains(key); }
    bool full() const { return entries_.size() >= capacity_; }
    std::size_t occupancy() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    std::uint64_t primaryMisses() const { return primary_.value(); }
    std::uint64_t secondaryMisses() const { return secondary_.value(); }
    std::uint64_t rejections() const { return rejected_.value(); }

  private:
    using Chain = mshr_detail::Chain;
    static constexpr std::uint32_t kNone = mshr_detail::kNone;

    struct Waiter
    {
        Callback cb;
        std::uint32_t next = kNone; ///< chain successor, or free list
    };

    /** Queue @p cb at the end of @p chain, reusing a free node. */
    void
    append(Chain &chain, Callback &&cb)
    {
        std::uint32_t at = free_;
        if (at != kNone) {
            free_ = waiters_[at].next;
            waiters_[at].cb = std::move(cb);
        } else {
            at = static_cast<std::uint32_t>(waiters_.size());
            waiters_.push_back(Waiter{std::move(cb)});
        }
        waiters_[at].next = kNone;
        if (chain.tail == kNone)
            chain.head = at;
        else
            waiters_[chain.tail].next = at;
        chain.tail = at;
    }

    std::uint32_t capacity_;
    FlatMap<Key, Chain> entries_;
    std::vector<Waiter> waiters_; ///< node pool, grows to the peak
    std::uint32_t free_ = kNone;  ///< free-list head in waiters_
    Counter primary_;
    Counter secondary_;
    Counter rejected_;
};

} // namespace barre

