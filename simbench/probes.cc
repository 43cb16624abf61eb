#include "probes.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/filter_engine.hh"
#include "core/pec.hh"
#include "filters/cuckoo_filter.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tlb/mshr.hh"
#include "tlb/tlb.hh"

namespace simbench
{

using barre::ProcessId;
using barre::Vpn;

namespace
{

constexpr std::size_t kBatch = 1024;
/**
 * Filter batches stay small: fills are inserted a batch ahead of the
 * erases of what they evicted, so the filter holds at most the L2 TLB's
 * entries plus one batch.
 */
constexpr std::size_t kFilterBatch = 64;
/** Events fired per EventQueue probe. */
constexpr std::uint64_t kQueueEvents = 2'000'000;

struct Access
{
    ProcessId pid;
    Vpn vpn;
};

/**
 * Time @p fn over @p n items in batches of @p batch, one span per
 * batch. @p fn(i) handles item i.
 */
template <typename Fn>
LayerCost
timedBatches(SpanLog &spans, const char *name, std::int32_t parent,
             std::int32_t cell, std::size_t n, Fn &&fn,
             std::size_t batch = kBatch)
{
    LayerCost cost;
    for (std::size_t lo = 0; lo < n; lo += batch) {
        const std::size_t hi = std::min(n, lo + batch);
        const std::int32_t id = spans.open(name, parent, cell);
        for (std::size_t i = lo; i < hi; ++i)
            fn(i);
        cost.ns += spans.close(id, hi - lo) * 1e9;
        cost.ops += hi - lo;
    }
    return cost;
}

/** Keeps a probe's results observable so the calls cannot be elided. */
volatile std::uint64_t g_sink = 0;

} // namespace

ProbeResult
probeCell(const CellSpec &cell, SpanLog &spans, std::int32_t cell_id)
{
    ProbeResult r;
    const std::int32_t root = spans.open("probe.cell", -1, cell_id);

    barre::System sys(cell.cfg);
    const barre::SystemConfig &cfg = sys.config();
    std::vector<Access> stream;
    for (const barre::ResolvedTenant &t : cell.spec.resolve()) {
        const barre::Trace tr = sys.recordAppTrace(t.app);
        for (const auto &cta : tr.ctas)
            for (const barre::AccessDesc &a : cta)
                stream.push_back(
                    {a.pid, barre::vpnOf(a.vaddr, cfg.page_size)});
    }

    // Untimed pre-pass: the L2-miss stream and, per L2 fill, the entry
    // it evicted (what an LCF mirroring the L2 TLB would erase).
    std::vector<Access> misses;
    std::vector<std::optional<Access>> evicted;
    {
        barre::Tlb l1(cfg.chiplet.l1_tlb);
        barre::Tlb l2(cfg.chiplet.l2_tlb);
        std::optional<Access> last_evict;
        l2.setEvictListener([&last_evict](const barre::TlbEntry &e) {
            last_evict = Access{e.pid, e.vpn};
        });
        for (const Access &a : stream) {
            if (l1.lookup(a.pid, a.vpn))
                continue;
            barre::TlbEntry te;
            te.pid = a.pid;
            te.vpn = a.vpn;
            te.valid = true;
            if (!l2.lookup(a.pid, a.vpn)) {
                misses.push_back(a);
                last_evict.reset();
                l2.insert(te);
                evicted.push_back(last_evict);
            }
            l1.insert(te);
        }
    }

    {
        barre::Tlb l1(cfg.chiplet.l1_tlb);
        barre::Tlb l2(cfg.chiplet.l2_tlb);
        r.tlb_lookup = timedBatches(
            spans, "tlb.lookup_insert", root, cell_id, stream.size(),
            [&](std::size_t i) {
                const Access &a = stream[i];
                if (l1.lookup(a.pid, a.vpn))
                    return;
                barre::TlbEntry te;
                te.pid = a.pid;
                te.vpn = a.vpn;
                te.valid = true;
                if (!l2.lookup(a.pid, a.vpn))
                    l2.insert(te);
                l1.insert(te);
            });
    }

    {
        // A primary miss holds its slot until the file is full, then the
        // oldest completes: the file stays at the configured occupancy.
        using TlbMshr = barre::Mshr<barre::TlbEntry>;
        TlbMshr mshr(cfg.chiplet.l2_tlb.mshrs);
        std::deque<TlbMshr::Key> inflight;
        const barre::TlbEntry filled{};
        std::uint64_t done = 0;
        r.mshr = timedBatches(
            spans, "tlb.mshr_alloc_complete", root, cell_id, misses.size(),
            [&](std::size_t i) {
                const TlbMshr::Key key =
                    TlbMshr::keyOf(misses[i].pid, misses[i].vpn);
                auto cb = [&done](const barre::TlbEntry &) { ++done; };
                auto out = mshr.allocate(key, cb);
                if (out == TlbMshr::Outcome::rejected) {
                    mshr.complete(inflight.front(), filled);
                    inflight.pop_front();
                    out = mshr.allocate(key, cb);
                }
                if (out == TlbMshr::Outcome::primary)
                    inflight.push_back(key);
            });
        g_sink = g_sink + done;
    }

    auto tableOf = [&](ProcessId pid) -> barre::PageTable & {
        return sys.driver().pageTable(pid);
    };
    {
        std::uint64_t sum = 0;
        r.walk = timedBatches(spans, "mem.walk", root, cell_id,
                              misses.size(), [&](std::size_t i) {
                                  auto pte = tableOf(misses[i].pid).walk(
                                      misses[i].vpn);
                                  sum += pte ? pte->pfn() : 0;
                              });
        g_sink = g_sink + sum;
    }

    if (cfg.mode == barre::TranslationMode::fbarre) {
        // PEC inputs: each coalesced L2 miss as the translated member,
        // another member of its group as the pending VPN.
        struct PecInput
        {
            const barre::PecEntry *entry;
            Vpn vpn;
            barre::Pfn pfn;
            barre::CoalInfo coal;
            Vpn pending;
            barre::Pfn expect;
        };
        std::vector<PecInput> in;
        const auto &entries = sys.driver().pecEntries();
        for (const Access &a : misses) {
            const auto pte = tableOf(a.pid).walk(a.vpn);
            if (!pte)
                continue;
            const barre::CoalInfo coal = pte->coalInfo();
            if (!coal.coalesced())
                continue;
            auto e = std::find_if(entries.begin(), entries.end(),
                                  [&](const barre::PecEntry &pe) {
                                      return pe.contains(a.pid, a.vpn);
                                  });
            if (e == entries.end())
                continue;
            for (Vpn m : barre::pec::interMembers(*e, a.vpn, coal)) {
                if (m == a.vpn)
                    continue;
                const auto mp = tableOf(a.pid).walk(m);
                in.push_back({&*e, a.vpn, pte->pfn(), coal, m,
                              mp ? mp->pfn() : barre::invalid_pfn});
                break;
            }
        }
        std::vector<barre::Pfn> got(in.size(), barre::invalid_pfn);
        const barre::MemoryMap &map = sys.memoryMap();
        r.pec_calc = timedBatches(
            spans, "core.pec_calc", root, cell_id, in.size(),
            [&](std::size_t i) {
                const PecInput &p = in[i];
                if (auto c = barre::pec::calcPending(*p.entry, p.vpn, p.pfn,
                                                     p.coal, p.pending, map))
                    got[i] = c->pfn;
            });
        for (std::size_t i = 0; i < in.size(); ++i)
            r.wrong_pec += got[i] != in[i].expect;

        // An LCF mirror of the L2 TLB: probe each batch of fills before
        // inserting it (mostly negatives, as for a miss), then erase
        // what those fills evicted.
        barre::CuckooFilter lcf(cfg.fbarre.filter);
        auto keyOf = [&](std::size_t i) {
            return barre::FilterEngine::keyOf(misses[i].pid, misses[i].vpn);
        };
        std::uint64_t positives = 0;
        for (std::size_t lo = 0; lo < misses.size(); lo += kFilterBatch) {
            const std::size_t n = std::min(kFilterBatch, misses.size() - lo);
            r.filter_contains.add(timedBatches(
                spans, "filters.contains", root, cell_id, n,
                [&](std::size_t i) { positives += lcf.contains(keyOf(lo + i)); },
                n));
            r.filter_insert.add(timedBatches(
                spans, "filters.insert", root, cell_id, n,
                [&](std::size_t i) { lcf.insert(keyOf(lo + i)); }, n));
            for (std::size_t i = lo; i < lo + n; ++i)
                if (evicted[i])
                    lcf.erase(barre::FilterEngine::keyOf(evicted[i]->pid,
                                                         evicted[i]->vpn));
        }
        g_sink = g_sink + positives;
    }
    spans.close(root);
    return r;
}

LayerCost
probeEventQueue(const barre::SystemConfig &cfg, std::uint64_t seed,
                SpanLog &spans)
{
    const std::vector<barre::Cycles> delays = {
        cfg.noc.latency,
        cfg.pcie.latency,
        cfg.chiplet.l1_tlb.lookup_latency,
        cfg.chiplet.l2_tlb.lookup_latency,
        cfg.chiplet.retry_interval,
        cfg.iommu.walk_latency,
        cfg.iommu.pec_calc_latency,
        cfg.fbarre.lcf_latency,
        cfg.fbarre.calc_latency,
    };
    struct Chain
    {
        barre::EventQueue *eq;
        const std::vector<barre::Cycles> *delays;
        barre::Rng rng;
        std::uint64_t left;

        void
        step()
        {
            if (left == 0)
                return;
            --left;
            eq->scheduleAfter((*delays)[rng.below(delays->size())],
                              [this] { step(); });
        }
    };

    barre::EventQueue eq;
    const std::uint32_t population = cfg.chiplets * cfg.cus_per_chiplet;
    std::vector<Chain> chains;
    chains.reserve(population);
    for (std::uint32_t i = 0; i < population; ++i)
        chains.push_back(Chain{&eq, &delays, barre::Rng(seed * 7919 + i),
                               kQueueEvents / population});
    const std::int32_t id = spans.open("sim.schedule_fire");
    for (Chain &c : chains)
        c.step();
    const std::uint64_t fired = eq.run();
    LayerCost cost;
    cost.ns = spans.close(id, fired) * 1e9;
    cost.ops = fired;
    return cost;
}

} // namespace simbench
