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
 *     the in-place fire).
 *
 * Filters use the Table II geometry (256 rows x 4 ways, 9-bit
 * fingerprints, 128 kicks); allocators hold 2 GiB of 4 KiB frames.
 *
 *   build/bench/bench_layers [out.json]   # default BENCH_layers.json
 *   build/bench/bench_layers --smoke      # seconds, no file writes
 *
 * Exits non-zero if a sanity check fails (a common run that is not
 * free in every peer, a filter that lost a fresh insert below
 * saturation).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "filters/cuckoo_filter.hh"
#include "mem/frame_allocator.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

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
    double ns_per_op = 0;
    std::uint64_t ops = 0;
    double lossy_share = -1; ///< only for filter inserts; <0 = n/a
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

bool
writeJson(const std::string &path, const std::vector<Layer> &layers)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 1,\n"
                 "  \"host_cores\": %u,\n"
                 "  \"layers\": [\n",
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const Layer &l = layers[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                     "\"ops\": %llu",
                     l.name.c_str(), l.ns_per_op,
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
    layers.push_back(insertAtFill(0.5, budget_ns));
    layers.push_back(insertAtFill(0.95, budget_ns));
    layers.push_back(insertSaturated(budget_ns));
    layers.push_back(containsAtFill95(budget_ns));
    for (std::size_t peers : {2, 4, 16})
        layers.push_back(commonFreeRun(peers, budget_ns));
    for (bool tagged : {false, true}) {
        const std::string engine = tagged ? "tagged" : "queue";
        layers.push_back(scheduleFire<SmallChain>(
            "event_" + engine + "_capture16", tagged, budget_ns));
        layers.push_back(scheduleFire<NestedChain>(
            "event_" + engine + "_nested", tagged, budget_ns));
    }

    for (const Layer &l : layers) {
        std::printf("%-28s %10.1f ns/op  (%llu ops)", l.name.c_str(),
                    l.ns_per_op, static_cast<unsigned long long>(l.ops));
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
