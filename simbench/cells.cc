#include "cells.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>
#include <exception>
#include <memory>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/scenario.hh"

namespace simbench
{

using barre::RunMetrics;
using barre::ScenarioSpec;
using barre::SystemConfig;

namespace
{

/*
 * Scales are chosen so one batch of cells takes a few seconds on a
 * 4-core host, leaving room for several repetitions per run; see
 * NOTES.md for the measured cell times.
 */
constexpr double kThrashScale = 0.25;
constexpr double kFriendlyScale = 2.0;
constexpr double kChurnScale = 0.05;
constexpr double kPartitionedScale = 0.25;
/** Churn: cells per batch, tenants per cell, and arrivals per
 *  ScenarioSpec::kChurnWindow cycles. */
constexpr std::uint32_t kChurnCells = 8;
constexpr std::uint32_t kChurnTenants = 16;
constexpr double kChurnRate = 8.0;

/** splitmix64 finalizer: decorrelates the run seed from app seeds. */
std::uint64_t
mix(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Re-register suite app @p name with its seed derived from @p seed. */
void
seedApp(const std::string &name, std::uint64_t seed)
{
    barre::AppParams app = barre::scenarioApp(name);
    app.seed = mix(app.seed ^ mix(seed));
    barre::registerScenarioApp(app);
}

void
addPairs(Workload &w, const std::vector<std::string> &apps, double scale,
         std::uint64_t seed)
{
    for (const std::string &app : apps) {
        seedApp(app, seed);
        for (bool fb : {false, true}) {
            CellSpec c;
            c.app = app;
            c.label = app + (fb ? "/fbarre" : "/baseline");
            c.cfg = fb ? SystemConfig::fbarreCfg(2)
                       : SystemConfig::baselineAts();
            c.cfg.workload_scale = scale;
            c.spec = ScenarioSpec::solo(app);
            w.cells.push_back(std::move(c));
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "thrash", "friendly", "churn", "partitioned"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, double scale_mult)
{
    Workload w;
    w.name = name;
    if (name == "thrash") {
        // High-MPKI band: the whole miss path (MSHR park/unpark, PW
        // queue, PEC, filter probes) does most of the work.
        addPairs(w, {"gups", "spmv", "bicg"}, kThrashScale * scale_mult,
                 seed);
    } else if (name == "friendly") {
        // Low/mid band: L1/L2 hits and the event engine dominate; the
        // miss-path layers do little ("no change predicted" side).
        addPairs(w, {"gemv", "fft", "atax"}, kFriendlyScale * scale_mult,
                 seed);
    } else if (name == "churn") {
        // Mid-run allocation, teardown, ASID shootdown storms and
        // filter erase beside lookups. Each cell runs a fixed roster of
        // low/mid-band tenants in a fixed order, one arrival per
        // ScenarioSpec::kChurnWindow / kChurnRate cycles, each shifted
        // by a seeded jitter of at most 1/16 gap either way; the seed
        // also reaches every app seed. Seeded app draws or Poisson
        // arrivals make a run's cost vary several-fold between seeds
        // (which apps run, how many overlap); see NOTES.md.
        const std::vector<std::string> apps = {"gemv", "fft", "pr", "fwt",
                                               "sssp", "lu", "atax", "cov"};
        for (const std::string &app : apps)
            seedApp(app, seed);
        const double gap = ScenarioSpec::kChurnWindow / kChurnRate;
        for (std::uint32_t k = 0; k < kChurnCells; ++k) {
            barre::Rng rng(mix(seed * kChurnCells + k));
            CellSpec c;
            for (std::uint32_t i = 0; i < kChurnTenants; ++i) {
                const double jitter = (rng.uniform() - 0.5) * gap / 8;
                c.spec.tenants.push_back(barre::TenantSpec{
                    apps[i % apps.size()], 1.0,
                    static_cast<barre::Tick>((i + 1) * gap + jitter)});
            }
            c.label = barre::csprintf("churn:%u:%g/%u", kChurnTenants,
                                      kChurnRate, k);
            c.cfg = SystemConfig::fbarreCfg(2);
            c.cfg.workload_scale = kChurnScale * scale_mult;
            w.cells.push_back(std::move(c));
        }
    } else if (name == "partitioned") {
        // The only workload on the PDES scheduler and cross-domain
        // staging. Mid-band apps only: high-MPKI apps at 16 chiplets
        // run for minutes serially. One worker thread: on a shared host
        // a multi-threaded run's wall time swings several-fold with
        // other tenants' load, so the gated cells run the partitioned
        // schedule on one thread, and the traced run times the same
        // cells threaded (NOTES.md).
        for (const std::string app : {"lu", "atax"}) {
            seedApp(app, seed);
            CellSpec c;
            c.app = app;
            c.label = app + "/fbarre/16c";
            c.cfg = SystemConfig::fbarreCfg(2);
            c.cfg.chiplets = 16;
            c.cfg.workload_scale = kPartitionedScale * scale_mult;
            c.cfg.sim_domains = c.cfg.chiplets + 1;
            c.cfg.sim_threads = 1;
            c.spec = ScenarioSpec::solo(app);
            c.check_serial = true;
            w.cells.push_back(std::move(c));
        }
    } else {
        barre_fatal("unknown workload '%s' (thrash, friendly, churn, "
                    "partitioned)",
                    name.c_str());
    }
    return w;
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

CellRun
runCell(const CellSpec &cell, const CellChecks &checks, SpanLog *spans,
        std::int32_t cell_id)
{
    CellRun r;
    const std::int32_t root =
        spans ? spans->open("harness.cell", -1, cell_id) : -1;
    // Times one call into the System in process CPU seconds, and in
    // wall seconds into @p wall when given; a span when tracing.
    auto timed = [&](const char *name, auto &&fn, double *wall = nullptr) {
        const std::int32_t id = spans ? spans->open(name, root, cell_id) : -1;
        const double c0 = cpuSeconds();
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        if (wall)
            *wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        const double s = cpuSeconds() - c0;
        if (spans)
            spans->close(id);
        return s;
    };

    try {
        std::unique_ptr<barre::System> sys;
        r.construct_s = timed("harness.construct", [&] {
            sys = std::make_unique<barre::System>(cell.cfg);
        });
        r.load_s = timed("harness.load", [&] { sys->loadScenario(cell.spec); });

        // Every translated data access fires its chiplet's latency probe
        // once, so the probes count accesses served. A dynamic
        // scenario's engine owns the probes and keeps the same
        // histograms per tenant. One histogram per chiplet, each on its
        // own cache lines: a probe fires only on its chiplet's event
        // context, so partitioned runs stay race-free.
        struct alignas(64) ChipletLatency
        {
            barre::LogHistogram h;
        };
        const bool dynamic = cell.spec.dynamicArrivals();
        std::vector<ChipletLatency> lat(dynamic ? 0 : cell.cfg.chiplets);
        for (std::uint32_t c = 0; c < lat.size(); ++c)
            sys->chiplet(c).setLatencyProbe(
                [&lat, c](barre::ProcessId, barre::Cycles v) {
                    lat[c].h.sample(v);
                });
        r.run_s =
            timed("harness.run", [&] { r.m = sys->run(); }, &r.run_wall_s);
        for (const ChipletLatency &l : lat)
            r.latency.merge(l.h);
        std::uint64_t served = r.latency.count();
        if (dynamic) {
            for (const barre::TenantMetrics &t : r.m.tenants)
                served += sys->scenarioEngine()->mergedLatency(t.pid).count();
        }

        const SystemConfig &cfg = sys->config();
        for (std::uint32_t c = 0; c < cfg.chiplets; ++c) {
            for (std::uint32_t u = 0; u < cfg.cus_per_chiplet; ++u) {
                r.l1_hits += sys->chiplet(c).l1Tlb(u).hits();
                r.l1_misses += sys->chiplet(c).l1Tlb(u).misses();
            }
        }

        const std::uint64_t shift = checks.corrupt_reference ? 1 : 0;
        const RunMetrics &m = r.m;
        if (m.accesses == 0 || served != m.accesses + shift) {
            r.failure = barre::csprintf(
                "served %llu accesses, generated %llu",
                (unsigned long long)served,
                (unsigned long long)(m.accesses + shift));
        } else if (!sys->eventQueue().empty()) {
            r.failure = "event queue not drained";
        } else if (dynamic) {
            const bool all_retired =
                sys->scenarioEngine() && sys->scenarioEngine()->allRetired() &&
                std::all_of(m.tenants.begin(), m.tenants.end(),
                            [](const barre::TenantMetrics &t) {
                                return t.retired > 0;
                            });
            if (!all_retired ||
                m.tenants.size() != cell.spec.resolve().size()) {
                r.failure = "not every tenant retired";
            } else {
                sys->auditNoStaleAsid();
            }
        }
        if (r.failure.empty() && checks.serial_ref) {
            RunMetrics ref = *checks.serial_ref;
            ref.sim_events += shift;
            if (!(m == ref))
                r.failure = "RunMetrics differ from the tagged-serial run";
        }
        if (r.failure.empty() && checks.first_rep && !(m == *checks.first_rep))
            r.failure = "RunMetrics differ from the first repetition";
    } catch (const std::exception &e) {
        r.failure = e.what();
    }
    if (spans)
        spans->close(root);
    return r;
}

namespace
{

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv(std::uint64_t h, double v)
{
    return fnv(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
fnv(std::uint64_t h, const std::string &s)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return fnv(h, std::uint64_t{s.size()});
}

} // namespace

std::uint64_t
digest(const RunMetrics &m, std::uint64_t h)
{
    h = fnv(h, m.config);
    h = fnv(h, m.app);
    for (std::uint64_t v :
         {std::uint64_t{m.runtime}, m.accesses, m.sim_events, m.l1_tlb_hits,
          m.l2_tlb_hits, m.l2_tlb_misses, m.mshr_retries, m.ats_packets,
          m.walks, m.iommu_coalesced, m.iommu_tlb_hits, m.local_calc_hits,
          m.remote_probes, m.remote_hits, m.fbarre_fallbacks,
          m.lcf_positives, m.lcf_true_positives, m.filter_updates,
          m.local_data, m.remote_data, m.noc_bytes, m.pcie_up_bytes,
          m.pcie_down_bytes, m.gmmu_local_walks, m.gmmu_remote_walks,
          m.gmmu_coalesced, m.coalesced_pages, m.mapped_pages,
          m.migrations})
        h = fnv(h, v);
    for (double v : {m.instructions, m.l2_mpki, m.avg_ats_time,
                     m.avg_pw_queue_depth})
        h = fnv(h, v);
    for (const barre::TenantMetrics &t : m.tenants) {
        h = fnv(h, t.app);
        for (std::uint64_t v :
             {std::uint64_t{t.pid}, std::uint64_t{t.arrival},
              std::uint64_t{t.finish}, std::uint64_t{t.retired}, t.accesses,
              t.lat_p50, t.lat_p95, t.lat_p99, t.peak_l2_tlb})
            h = fnv(h, v);
    }
    return h;
}

} // namespace simbench
