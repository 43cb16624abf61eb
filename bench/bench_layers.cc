/**
 * @file
 * Per-layer cost bench: ns/op for single pieces of the translation
 * hot path, so an end-to-end change can be traced to the layer that
 * caused it. This first slice covers the two host hot spots of F-Barre
 * runs:
 *
 *   - cuckoo-filter insert at fill 0.5 and 0.95, and in the saturated
 *     insert+erase steady state a remote coalescing filter sits in
 *     under a high-MPKI workload (most inserts spend the whole kick
 *     budget and end lossy); plus contains() at fill 0.95;
 *   - FrameAllocator::findCommonFreeRun over 2, 4 and 16 aged
 *     allocators (a densely allocated low region with scattered holes,
 *     then light fragmentation), the driver's common-frame search for
 *     coalescing groups;
 *   - event schedule+fire, per event, for a 16-byte capture and for a
 *     nested continuation capture larger than InlineFn's 48-byte
 *     buffer, on the legacy EventQueue and on a single-domain
 *     TaggedEngine (the payload cell, the ladder or domain heap, and
 *     the in-place fire);
 *   - the set-associative tag stores at Table II geometry: an L1 TLB
 *     hit (64 entries, one fully associative set), an L1 TLB miss plus
 *     its 64-way fill, an L2 TLB lookup (512 entries, 16-way; half
 *     hits, half misses), and an L1 (16 KiB, 4-way) and L2 (2 MiB,
 *     16-way) data-cache access over a random line stream twice the
 *     cache's capacity.
 *
 * Filters use the Table II geometry (256 rows x 4 ways, 9-bit
 * fingerprints, 128 kicks); allocators hold 2 GiB of 4 KiB frames.
 *
 * Every row is timed in five passes of equal budget; ns_per_op is the
 * median pass, ns_min and ns_max the fastest and slowest, so two runs
 * can be told apart from the spread of one.
 *
 *   build/bench/bench_layers [out.json]   # default BENCH_layers.json
 *   build/bench/bench_layers --smoke      # seconds, no file writes
 *
 * Exits non-zero if a sanity check fails (a common run that is not
 * free in every peer, a filter that lost a fresh insert below
 * saturation).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hh"
#include "filters/cuckoo_filter.hh"
#include "gpu/chiplet.hh"
#include "mem/frame_allocator.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

using namespace barre;

namespace
{

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

struct Layer
{
    std::string name;
    double ns_per_op = 0; ///< median pass (one pass inside a row fn)
    std::uint64_t ops = 0;
    double lossy_share = -1; ///< only for filter inserts; <0 = n/a
    double ns_min = 0;       ///< fastest of the timed passes
    double ns_max = 0;       ///< slowest of the timed passes
};

bool ok = true;

void
check(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "ERROR: %s\n", what);
        ok = false;
    }
}

/**
 * Insert cost around fill @p fill: fresh filters are filled to just
 * below it untimed, then the inserts that carry occupancy across the
 * last 2 % of capacity are timed. Repeats until @p budget_ns of timed
 * work has accumulated.
 */
Layer
insertAtFill(double fill, double budget_ns)
{
    const CuckooFilterParams base{};
    const std::uint64_t cap = std::uint64_t{base.rows} * base.ways;
    const std::uint64_t target = static_cast<std::uint64_t>(fill * cap);
    const std::uint64_t window = cap / 50;
    Rng rng(0x1a7e55 + static_cast<std::uint64_t>(fill * 1000));
    double timed = 0;
    Layer l{"cuckoo_insert_fill" + std::to_string(int(fill * 100))};
    std::uint64_t lossy = 0;
    for (std::uint64_t round = 0; timed < budget_ns; ++round) {
        CuckooFilterParams p = base;
        p.salt = round;
        CuckooFilter f(p);
        while (f.size() < target - window)
            f.insert(rng.next());
        std::vector<std::uint64_t> keys(window);
        for (auto &k : keys)
            k = rng.next();
        const std::uint64_t lossy0 = f.lossyInserts();
        const auto t0 = Clock::now();
        for (std::uint64_t k : keys)
            f.insert(k);
        timed += nsSince(t0);
        l.ops += window;
        lossy += f.lossyInserts() - lossy0;
        if (fill < 0.9)
            check(f.lossyInserts() == 0, "lossy insert at half fill");
    }
    l.ns_per_op = timed / static_cast<double>(l.ops);
    l.lossy_share = static_cast<double>(lossy) / l.ops;
    return l;
}

/** contains() at fill 0.95, half hits and half misses. */
Layer
containsAtFill95(double budget_ns)
{
    CuckooFilter f;
    Rng rng(0xc0de);
    std::vector<std::uint64_t> keys;
    const auto target = static_cast<std::uint64_t>(0.95 * f.capacity());
    while (f.size() < target) {
        keys.push_back(rng.next());
        f.insert(keys.back());
    }
    std::vector<std::uint64_t> probes;
    for (std::size_t i = 0; i < 4096; ++i)
        probes.push_back(i % 2 ? keys[rng.below(keys.size())]
                               : rng.next());
    Layer l{"cuckoo_contains_fill95"};
    double timed = 0;
    std::uint64_t hits = 0;
    while (timed < budget_ns) {
        const auto t0 = Clock::now();
        for (std::uint64_t x : probes)
            hits += f.contains(x);
        timed += nsSince(t0);
        l.ops += probes.size();
    }
    check(hits >= l.ops / 2, "contains() missed a resident key");
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/**
 * Saturated steady state: the filter is driven past capacity, then
 * every timed batch of inserts is followed by an untimed batch of
 * erases of the oldest keys, holding the live set at 1.25x capacity.
 */
Layer
insertSaturated(double budget_ns)
{
    CuckooFilter f;
    Rng rng(0x5a7);
    std::deque<std::uint64_t> live;
    const std::uint64_t depth = f.capacity() + f.capacity() / 4;
    while (live.size() < depth) {
        live.push_back(rng.next());
        f.insert(live.back());
    }
    constexpr int batch = 32;
    Layer l{"cuckoo_insert_saturated"};
    double timed = 0;
    const std::uint64_t lossy0 = f.lossyInserts();
    std::uint64_t keys[batch];
    while (timed < budget_ns) {
        for (auto &k : keys)
            k = rng.next();
        const auto t0 = Clock::now();
        for (std::uint64_t k : keys)
            f.insert(k);
        timed += nsSince(t0);
        l.ops += batch;
        for (std::uint64_t k : keys)
            live.push_back(k);
        for (int i = 0; i < batch; ++i) {
            f.erase(live.front());
            live.pop_front();
        }
    }
    l.ns_per_op = timed / static_cast<double>(l.ops);
    l.lossy_share =
        static_cast<double>(f.lossyInserts() - lossy0) / l.ops;
    return l;
}

/**
 * Common-frame search over @p peers aged allocators. The low 40 % of
 * each allocator is allocated except for independent 1 % holes, the
 * rest carries 5 % random fragmentation; queries ask for runs of 1, 2
 * and 4 frames (the merge widths) from frame 0, as the driver does.
 */
Layer
commonFreeRun(std::size_t peers, double budget_ns)
{
    constexpr std::uint64_t frames = (std::uint64_t{2} << 30) >> 12;
    Rng rng(0xf4a3e + peers);
    std::vector<std::unique_ptr<FrameAllocator>> owned;
    std::vector<const FrameAllocator *> view;
    for (std::size_t i = 0; i < peers; ++i) {
        auto fa = std::make_unique<FrameAllocator>(frames);
        for (LocalPfn p = 0; p < frames * 2 / 5; ++p)
            if (!rng.chance(0.01))
                fa->allocate(p);
        fa->injectFragmentation(0.05, rng);
        view.push_back(fa.get());
        owned.push_back(std::move(fa));
    }
    const std::span<const FrameAllocator *> span(view);
    Layer l{"common_free_run_" + std::to_string(peers) + "peers"};
    double timed = 0;
    while (timed < budget_ns) {
        for (std::uint64_t run : {1, 2, 4}) {
            const auto t0 = Clock::now();
            auto base = FrameAllocator::findCommonFreeRun(span, run);
            timed += nsSince(t0);
            ++l.ops;
            check(base.has_value(), "no common run found");
            for (std::uint64_t i = 0; base && i < run; ++i)
                for (const auto *fa : view)
                    check(fa->isFree(*base + i),
                          "common run holds a taken frame");
        }
    }
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/** Concurrent event chains per event-path row (CUs of one chiplet). */
constexpr std::size_t kEventChains = 64;

/** Each event schedules its successor with a 16-byte capture. */
struct SmallChain
{
    EventQueue *eq;
    Rng rng;
    std::uint64_t left;
    std::uint64_t sum = 0;

    void
    step(std::uint64_t seq)
    {
        sum += seq;
        if (left == 0)
            return;
        --left;
        eq->scheduleAfter(1 + rng.below(64),
                          [this, seq] { step(seq + 1); });
    }

    void start() { step(0); }
};

/**
 * Two events per round, shaped like a memory access: the first captures
 * a `done` continuation plus request state (88 bytes), then wraps
 * `done` into a continuation too big for the inline buffer and parks
 * it in the second event; calling `done` starts the next round.
 */
struct NestedChain
{
    EventQueue *eq;
    Rng rng;
    std::uint64_t left;
    std::uint64_t sum = 0;

    void
    start()
    {
        if (left == 0)
            return;
        --left;
        round(EventQueue::Callback([this] { start(); }));
    }

    void
    round(EventQueue::Callback &&done)
    {
        const std::uint64_t a = left, b = sum, c = rng.below(64);
        eq->scheduleAfter(1 + c, [this, a, b, c,
                                  done = std::move(done)]() mutable {
            EventQueue::Callback cont = [this, a, b, c,
                                         done = std::move(done)] {
                sum += a ^ b ^ c;
                done();
            };
            eq->scheduleAfter(1 + rng.below(64),
                              [cont = std::move(cont)] { cont(); });
        });
    }
};

/**
 * ns per schedule+fire with @p Chain payloads, on the legacy queue or
 * (@p tagged) a single-domain TaggedEngine. One untimed warm-up pass
 * fills the cell pool and the containers; timed passes repeat until
 * @p budget_ns has accumulated.
 */
template <typename Chain>
Layer
scheduleFire(const std::string &name, bool tagged, double budget_ns)
{
    constexpr std::uint64_t kPerChain = 4096;
    Layer l{name};
    double timed = 0;
    for (int pass = 0; pass == 0 || timed < budget_ns; ++pass) {
        EventQueue eq;
        if (tagged)
            eq.enableTags({0}, 1);
        std::vector<Chain> chains;
        for (std::size_t i = 0; i < kEventChains; ++i)
            chains.push_back(Chain{&eq, Rng(0xe7 + i), kPerChain});
        const auto t0 = Clock::now();
        {
            EventQueue::TagScope scope(eq, kHostTag);
            for (Chain &c : chains)
                c.start();
        }
        const std::uint64_t fired =
            tagged ? eq.taggedEngine()->runEpoch(0, max_tick) : eq.run();
        const double ns = nsSince(t0);
        check(eq.empty(), "event chains left events pending");
        if (pass == 0)
            continue;
        timed += ns;
        l.ops += fired;
    }
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/** Table II chiplet geometry (TLBs and caches). */
const ChipletParams kTableII{};

TlbEntry
tlbEntry(ProcessId pid, Vpn vpn)
{
    TlbEntry e;
    e.pid = pid;
    e.vpn = vpn;
    e.pfn = vpn ^ 0x5a5a;
    e.valid = true;
    return e;
}

/**
 * L1 TLB hit: the 64-entry, 64-way TLB is filled, then resident keys
 * are looked up in a shuffled order (one set: every lookup scans it).
 */
Layer
tlbL1Hit(double budget_ns)
{
    const TlbParams &p = kTableII.l1_tlb;
    Tlb tlb(p);
    Rng rng(0x11);
    std::vector<Vpn> keys;
    for (std::uint32_t i = 0; i < p.entries; ++i) {
        keys.push_back(0x40000 + rng.below(1 << 20));
        tlb.insert(tlbEntry(1, keys.back()));
    }
    std::vector<Vpn> probes;
    for (std::size_t i = 0; i < 4096; ++i)
        probes.push_back(keys[rng.below(keys.size())]);
    Layer l{"tlb_l1_hit"};
    double timed = 0;
    std::uint64_t sum = 0;
    while (timed < budget_ns) {
        const auto t0 = Clock::now();
        for (Vpn v : probes)
            sum += tlb.lookup(1, v)->pfn;
        timed += nsSince(t0);
        l.ops += probes.size();
    }
    check(sum != 0 && tlb.misses() == 0, "L1 TLB probe missed");
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/**
 * L1 TLB miss plus fill: every key is new, so each lookup scans the
 * whole 64-way set and misses, and the insert evicts the LRU way.
 * One op is the lookup and the insert.
 */
Layer
tlbL1MissFill(double budget_ns)
{
    const TlbParams &p = kTableII.l1_tlb;
    Tlb tlb(p);
    Vpn next = 0x40000;
    for (std::uint32_t i = 0; i < p.entries; ++i)
        tlb.insert(tlbEntry(1, next++));
    Layer l{"tlb_l1_miss_fill"};
    double timed = 0;
    std::uint64_t hits = 0;
    while (timed < budget_ns) {
        const auto t0 = Clock::now();
        for (int i = 0; i < 4096; ++i) {
            const Vpn v = next++;
            hits += tlb.lookup(1, v).has_value();
            tlb.insert(tlbEntry(1, v));
        }
        timed += nsSince(t0);
        l.ops += 4096;
    }
    check(hits == 0 && tlb.evictions() >= l.ops,
          "L1 TLB fill did not evict");
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/**
 * L2 TLB lookup (512 entries, 16-way, 32 sets): every set holds 16
 * resident keys; probes are half resident keys and half absent keys
 * of the same sets, in a shuffled order. Misses do not fill.
 */
Layer
tlbL2Lookup(double budget_ns)
{
    const TlbParams &p = kTableII.l2_tlb;
    Tlb tlb(p);
    Rng rng(0x22);
    for (Vpn v = 0; v < p.entries; ++v)
        tlb.insert(tlbEntry(1, 0x40000 + v));
    std::vector<Vpn> probes;
    for (std::size_t i = 0; i < 4096; ++i)
        probes.push_back(0x40000 + rng.below(2 * p.entries));
    Layer l{"tlb_l2_lookup"};
    double timed = 0;
    std::uint64_t hits = 0;
    while (timed < budget_ns) {
        const auto t0 = Clock::now();
        for (Vpn v : probes)
            hits += tlb.lookup(1, v).has_value();
        timed += nsSince(t0);
        l.ops += probes.size();
    }
    check(hits > l.ops / 3 && hits < 2 * l.ops / 3,
          "L2 TLB probes are not about half hits");
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/**
 * Data-cache access at @p p: a random stream over twice the cache's
 * lines, replayed after one untimed warm pass that fills the cache.
 */
Layer
cacheAccess(const std::string &name, const CacheParams &p,
            double budget_ns)
{
    Cache cache(p);
    Rng rng(0x33 + p.ways);
    const std::uint64_t lines = p.size_bytes / p.line_bytes;
    std::vector<Addr> stream(std::max<std::uint64_t>(4096, 2 * lines));
    for (Addr &a : stream)
        a = (0x100000 + rng.below(2 * lines)) * p.line_bytes;
    for (Addr a : stream)
        cache.access(a);
    Layer l{name};
    double timed = 0;
    std::uint64_t hits = 0;
    while (timed < budget_ns) {
        const auto t0 = Clock::now();
        for (Addr a : stream)
            hits += cache.access(a);
        timed += nsSince(t0);
        l.ops += stream.size();
    }
    check(hits > 0 && hits < l.ops, "cache stream is all hits or misses");
    l.ns_per_op = timed / static_cast<double>(l.ops);
    return l;
}

/** Timed passes per row. */
constexpr int kPasses = 5;

/**
 * Time @p row in five passes of budget_ns / 5 each and report the
 * median pass with the fastest and slowest beside it.
 */
template <typename Row>
Layer
fivePasses(double budget_ns, Row &&row)
{
    std::vector<Layer> passes;
    for (int i = 0; i < kPasses; ++i)
        passes.push_back(row(budget_ns / kPasses));
    std::vector<double> ns;
    Layer out = passes.front();
    out.ops = 0;
    double lossy = 0;
    for (const Layer &p : passes) {
        ns.push_back(p.ns_per_op);
        out.ops += p.ops;
        lossy += p.lossy_share * static_cast<double>(p.ops);
    }
    std::sort(ns.begin(), ns.end());
    out.ns_per_op = ns[kPasses / 2];
    out.ns_min = ns.front();
    out.ns_max = ns.back();
    if (out.lossy_share >= 0)
        out.lossy_share = lossy / static_cast<double>(out.ops);
    return out;
}

bool
writeJson(const std::string &path, const std::vector<Layer> &layers)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 2,\n"
                 "  \"host_cores\": %u,\n"
                 "  \"passes\": %d,\n"
                 "  \"layers\": [\n",
                 std::thread::hardware_concurrency(), kPasses);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Layer &l = layers[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                     "\"ns_min\": %.2f, \"ns_max\": %.2f, "
                     "\"ops\": %llu",
                     l.name.c_str(), l.ns_per_op, l.ns_min, l.ns_max,
                     static_cast<unsigned long long>(l.ops));
        if (l.lossy_share >= 0)
            std::fprintf(f, ", \"lossy_share\": %.4f", l.lossy_share);
        std::fprintf(f, "}%s\n", i + 1 < layers.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_layers.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            out_path = argv[i];
    }
    // Timed work per layer; the smoke run only proves the bench runs.
    const double budget_ns = smoke ? 2e6 : 2e8;

    std::vector<Layer> layers;
    auto add = [&](auto &&row) {
        layers.push_back(fivePasses(budget_ns, row));
    };
    for (double fill : {0.5, 0.95})
        add([fill](double b) { return insertAtFill(fill, b); });
    add(insertSaturated);
    add(containsAtFill95);
    for (std::size_t peers : {2, 4, 16})
        add([peers](double b) { return commonFreeRun(peers, b); });
    for (bool tagged : {false, true}) {
        const std::string engine = tagged ? "tagged" : "queue";
        add([&](double b) {
            return scheduleFire<SmallChain>(
                "event_" + engine + "_capture16", tagged, b);
        });
        add([&](double b) {
            return scheduleFire<NestedChain>(
                "event_" + engine + "_nested", tagged, b);
        });
    }
    add(tlbL1Hit);
    add(tlbL1MissFill);
    add(tlbL2Lookup);
    add([](double b) {
        return cacheAccess("cache_l1_access", kTableII.l1_cache, b);
    });
    add([](double b) {
        return cacheAccess("cache_l2_access", kTableII.l2_cache, b);
    });

    std::printf("%-28s %10s %10s %10s\n", "layer (median of 5)", "ns/op",
                "min", "max");
    for (const Layer &l : layers) {
        std::printf("%-28s %10.1f %10.1f %10.1f  (%llu ops)",
                    l.name.c_str(), l.ns_per_op, l.ns_min, l.ns_max,
                    static_cast<unsigned long long>(l.ops));
        if (l.lossy_share >= 0)
            std::printf("  lossy %.1f%%", 100 * l.lossy_share);
        std::printf("\n");
    }

    if (!smoke) {
        if (!writeJson(out_path, layers)) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    return ok ? 0 : 1;
}
