/**
 * @file
 * TaggedEngine cold paths: the async per-channel service pass, the
 * epoch-barrier staging drain, stall recovery, per-domain heap
 * maintenance, and the structural audit.
 */

#include "sim/domain.hh"

namespace barre
{

namespace
{

Tick
clampAdd(Tick a, Tick b)
{
    return a > max_tick - b ? max_tick : a + b;
}

} // namespace

TaggedEngine::~TaggedEngine()
{
    for (const Domain &dom : domains_)
        for (const Entry &e : dom.heap)
            e.cell->discard();
    for (const Lane &lane : lanes_)
        for (const Entry &e : lane.evs)
            e.cell->discard();
    auto discardOps = [](const std::vector<StagedArb> &ops) {
        for (const StagedArb &op : ops)
            if (op.deliver)
                op.deliver->discard();
    };
    for (const ArbLane &lane : arb_lanes_)
        discardOps(lane.ops);
    for (const std::vector<StagedArb> &ops : pending_arb_)
        discardOps(ops);
    discardOps(scratch_arb_);
}

void
TaggedEngine::replayArb(StagedArb &op)
{
    // Establish the owner's execution context so any stats the hook
    // bumps shard onto the owner tag (and thus the servicing worker)
    // instead of whatever tag the caller happened to carry.
    TagScope scope(this, op.owner);
    const Tick when = op.hook->arbitrate(op.sent, op.bytes);
    BARRE_AUDIT(barre_assert(
        when >= op.sent + channelLookahead(op.src_dom,
                                           tag_domain_[op.owner]),
        "arbitrated delivery at tick %llu beats channel %u->%u "
        "lookahead (sent %llu)",
        (unsigned long long)when, op.src_dom,
        tag_domain_[op.owner], (unsigned long long)op.sent));
    heapPush(domains_[tag_domain_[op.owner]],
             Entry{when, op.sent, op.key, op.deliver, op.owner});
    op.deliver = nullptr;
}

bool
TaggedEngine::serviceDomain(std::uint32_t d)
{
    Domain &dom = domains_[d];
    const std::uint32_t n = domains();

    // 1. Snapshot every published clock *before* draining: anything
    //    staged after this point carries a send stamp >= its sender's
    //    snapshot clock, so bounds derived from the snapshot stay
    //    conservative for work we miss this pass.
    dom.snap.resize(n);
    for (std::uint32_t s = 0; s < n; ++s)
        dom.snap[s] = clocks_[s].v.load(std::memory_order_acquire);

    // 2. Drain this domain's incoming arbitration lanes into the
    //    sorted pending list.
    std::size_t drained_arb = 0;
    std::vector<StagedArb> &pend = pending_arb_[d];
    const std::size_t sorted_prefix = pend.size();
    for (std::uint32_t s = 0; s < n; ++s) {
        ArbLane &lane = arb_lanes_[std::size_t(s) * n + d];
        std::lock_guard<std::mutex> lk(lane.mu);
        pend.insert(pend.end(), lane.ops.begin(), lane.ops.end());
        drained_arb += lane.ops.size();
        lane.ops.clear();
    }
    if (drained_arb > 0) {
        std::sort(pend.begin() + sorted_prefix, pend.end(), arbBefore);
        std::inplace_merge(pend.begin(), pend.begin() + sorted_prefix,
                           pend.end(), arbBefore);
    }

    // 3. Replay the safe prefix: every domain (including this one)
    //    promises never to stage another op with sent < its clock, so
    //    ops below the snapshot minimum can never gain an
    //    earlier-sorting competitor.
    Tick min_clock = max_tick;
    for (std::uint32_t s = 0; s < n; ++s)
        min_clock = std::min(min_clock, dom.snap[s]);
    std::size_t applied = 0;
    while (applied < pend.size() && pend[applied].sent < min_clock) {
        replayArb(pend[applied]);
        ++applied;
    }
    if (applied > 0)
        pend.erase(pend.begin(), pend.begin() + applied);

    // 4. Merge incoming channel lanes. Arrival order is irrelevant —
    //    every entry carries a complete (when, birth, key).
    std::size_t merged = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (s == d)
            continue;
        Lane &lane = lanes_[std::size_t(s) * n + d];
        std::lock_guard<std::mutex> lk(lane.mu);
        for (const Entry &e : lane.evs)
            heapPush(dom, e);
        merged += lane.evs.size();
        lane.evs.clear();
    }

    // 5. Safe horizon: the CMB bound over incoming channels, clamped
    //    below the earliest possible delivery of any still-pending
    //    arbitration op (its replay may land an event that early).
    Tick safe = max_tick;
    for (std::uint32_t s = 0; s < n; ++s) {
        if (s == d)
            continue;
        safe = std::min(safe,
                        clampAdd(dom.snap[s], channelLookahead(s, d)));
    }
    for (const StagedArb &op : pend)
        safe = std::min(safe,
                        clampAdd(op.sent,
                                 channelLookahead(op.src_dom, d)));

    // 6. Fire everything below the horizon.
    const std::uint64_t fired = runEpoch(d, safe);

    // 7. Publish the clock: this domain will not send anything before
    //    it next fires, i.e. before min(local heap top, safe). The
    //    published value is monotone — arrivals merged later land at
    //    or beyond the safe bound they were admitted under.
    const Tick top = dom.heap.empty() ? max_tick
                                      : dom.heap.front().when;
    const Tick clock = std::min(top, safe);
    const Tick prev = clocks_[d].v.load(std::memory_order_relaxed);
    BARRE_AUDIT(barre_assert(clock >= prev,
                             "domain %u clock moved backwards "
                             "(%llu < %llu)",
                             d, (unsigned long long)clock,
                             (unsigned long long)prev));
    if (clock > prev)
        clocks_[d].v.store(clock, std::memory_order_release);

    return fired > 0 || merged > 0 || drained_arb > 0 || applied > 0;
}

Tick
TaggedEngine::stallBreak()
{
    // Earliest tick at which *any* pending work anywhere could fire.
    // Every future event descends from something already pending, and
    // deliveries only ever add latency, so no domain can fire — hence
    // send — below this bound, and every clock may jump to it.
    Tick t = nextEventTick();
    const std::uint32_t n = domains();
    for (const Lane &lane : lanes_) {
        std::lock_guard<std::mutex> lk(lane.mu);
        for (const Entry &e : lane.evs)
            t = std::min(t, e.when);
    }
    for (std::uint32_t s = 0; s < n; ++s) {
        for (std::uint32_t d = 0; d < n; ++d) {
            const ArbLane &lane = arb_lanes_[std::size_t(s) * n + d];
            std::lock_guard<std::mutex> lk(lane.mu);
            for (const StagedArb &op : lane.ops)
                t = std::min(t,
                             clampAdd(op.sent, channelLookahead(s, d)));
        }
    }
    for (std::uint32_t d = 0; d < n; ++d) {
        for (const StagedArb &op : pending_arb_[d])
            t = std::min(t, clampAdd(op.sent,
                                     channelLookahead(op.src_dom, d)));
    }
    if (t == max_tick)
        return t;
    for (PaddedClock &c : clocks_) {
        if (c.v.load(std::memory_order_relaxed) < t)
            c.v.store(t, std::memory_order_release);
    }
    return t;
}

void
TaggedEngine::drainStaged()
{
    // Gather every staged arbitration op and replay them in the global
    // order a serial run would have presented them to the shared
    // resource: by send tick, then by the sending event's composite
    // key, then by issue order within that event. All components are
    // partition-independent, so the replay is too.
    scratch_arb_.clear();
    for (ArbLane &lane : arb_lanes_) {
        std::lock_guard<std::mutex> lk(lane.mu);
        scratch_arb_.insert(scratch_arb_.end(), lane.ops.begin(),
                            lane.ops.end());
        lane.ops.clear();
    }
    std::sort(scratch_arb_.begin(), scratch_arb_.end(), arbBefore);
    for (StagedArb &op : scratch_arb_) {
        BARRE_AUDIT(barre_assert(
            op.sent + channelLookahead(op.src_dom,
                                       tag_domain_[op.owner]) >=
                horizon_,
            "staged arbitration op sent at %llu could deliver inside "
            "the epoch horizon %llu",
            (unsigned long long)op.sent,
            (unsigned long long)horizon_));
        replayArb(op);
    }
    scratch_arb_.clear();

    // Staged plain deliveries carry complete keys; insertion order is
    // irrelevant to firing order, so a simple per-lane sweep is
    // deterministic.
    const std::uint32_t n = domains();
    for (std::uint32_t s = 0; s < n; ++s) {
        for (std::uint32_t d = 0; d < n; ++d) {
            Lane &lane = lanes_[std::size_t(s) * n + d];
            std::lock_guard<std::mutex> lk(lane.mu);
            for (const Entry &e : lane.evs)
                heapPush(domains_[d], e);
            lane.evs.clear();
        }
    }
}

void
TaggedEngine::heapPush(Domain &dom, Entry e)
{
    std::vector<Entry> &h = dom.heap;
    std::size_t i = h.size();
    h.push_back(e);
    // Sift the hole up, moving parents down.
    while (i > 0) {
        std::size_t p = (i - 1) >> 2;
        if (!entryBefore(e, h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = e;
}

TaggedEngine::Entry
TaggedEngine::heapPop(Domain &dom)
{
    std::vector<Entry> &h = dom.heap;
    const Entry out = h.front();
    const Entry tail = h.back();
    h.pop_back();
    const std::size_t n = h.size();
    if (n > 0) {
        std::size_t i = 0;
        for (;;) {
            std::size_t c = 4 * i + 1;
            if (c >= n)
                break;
            std::size_t m = c;
            const std::size_t end = c + 4 < n ? c + 4 : n;
            for (++c; c < end; ++c) {
                if (entryBefore(h[c], h[m]))
                    m = c;
            }
            if (!entryBefore(h[m], tail))
                break;
            h[i] = h[m];
            i = m;
        }
        h[i] = tail;
    }
    return out;
}

void
TaggedEngine::auditDomain(std::uint32_t d) const
{
    const Domain &dom = domains_[d];
    const std::size_t n = dom.heap.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Entry &e = dom.heap[i];
        barre_assert(e.when >= dom.now,
                     "domain %u heap entry %zu at tick %llu is in the "
                     "past (now %llu)",
                     d, i, (unsigned long long)e.when,
                     (unsigned long long)dom.now);
        barre_assert(tag_domain_[e.tag] == d,
                     "domain %u holds an event for tag %u (domain %u)",
                     d, unsigned(e.tag), tag_domain_[e.tag]);
        if (i == 0)
            continue;
        const std::size_t p = (i - 1) >> 2;
        barre_assert(!entryBefore(e, dom.heap[p]),
                     "domain %u 4-ary heap order violated at index %zu",
                     d, i);
    }
}

} // namespace barre
