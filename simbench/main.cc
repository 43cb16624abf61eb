/**
 * @file
 * simbench: the simulator's benchmark. Runs one workload's batch of
 * cells repeatedly for a fixed host-time budget and prints end-to-end
 * metrics (untraced run) or per-layer metrics (traced run, --trace 1),
 * with every cell's outputs checked. The last stdout line is the JSON
 * result; the lines before it state the simulated results (cycles,
 * sim_digest, F-Barre speedup) and the failed-cell count.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--scale-mult F] [--wrong-reference] [--spans FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calib.hh"
#include "cells.hh"
#include "probes.hh"
#include "spans.hh"

namespace simbench
{
namespace
{

using barre::RunMetrics;

/**
 * Timed repetitions of the batch every run makes, whatever the budget;
 * an untimed warm-up repetition comes first.
 */
constexpr std::size_t kMinReps = 3;
/** Probe passes per traced run (per-layer host times are medians). */
constexpr int kProbePasses = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale_mult = 1.0;
    bool wrong_reference = false;
    std::string spans_path;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scale-mult F] "
                 "[--wrong-reference] [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto number = [&](int &i, const char *flag) {
        if (i + 1 >= argc)
            usage(std::string(flag) + " needs a value");
        char *end = nullptr;
        const double v = std::strtod(argv[++i], &end);
        if (*end != '\0' || !(v >= 0))
            usage(std::string("bad value for ") + flag);
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload" && i + 1 < argc) {
            o.workload = argv[++i];
        } else if (a == "--seed") {
            o.seed = static_cast<std::uint64_t>(number(i, "--seed"));
        } else if (a == "--seconds") {
            o.seconds = number(i, "--seconds");
        } else if (a == "--trace") {
            const double t = number(i, "--trace");
            if (t != 0 && t != 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else if (a == "--scale-mult") {
            o.scale_mult = number(i, "--scale-mult");
            if (o.scale_mult <= 0)
                usage("--scale-mult must be > 0");
        } else if (a == "--wrong-reference") {
            o.wrong_reference = true;
        } else if (a == "--spans" && i + 1 < argc) {
            o.spans_path = argv[++i];
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("--workload must be one of thrash, friendly, churn, "
              "partitioned");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/**
 * One repetition of the workload's batch of cells. Its host times are
 * scaled to the nominal host by host_scale: kNominalReferenceS / the
 * median of the run's reference calls (calib.hh).
 */
struct Batch
{
    std::vector<CellRun> runs;
    double host_scale = 1;

    double
    setupSeconds() const
    {
        return host_scale *
               sum([](auto &r) { return r.construct_s + r.load_s; });
    }
    double
    runSeconds() const
    {
        return host_scale * sum([](auto &r) { return r.run_s; });
    }
    double
    cellSeconds(std::size_t i) const
    {
        return host_scale * runs[i].cellSeconds();
    }
    template <typename Fn>
    double
    sum(Fn &&fn) const
    {
        double s = 0;
        for (const CellRun &r : runs)
            s += static_cast<double>(fn(r));
        return s;
    }
};

/** Metrics in print order: name -> (value, unit). */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        rows_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
            out += (i ? ", \"" : "\"") + rows_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   rows_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

std::vector<double>
perBatch(std::span<const Batch> bs, double (*fn)(const Batch &))
{
    std::vector<double> v;
    for (const Batch &b : bs)
        v.push_back(fn(b));
    return v;
}

void
endToEnd(Metrics &out, std::span<const Batch> bs, double peak_rss_mb)
{
    const Batch &b0 = bs.front();
    const double accesses = b0.sum([](auto &r) { return r.m.accesses; });
    const double events = b0.sum([](auto &r) { return r.m.sim_events; });
    out.set("setup_s",
            median(perBatch(bs, [](const Batch &b) { return b.setupSeconds(); })),
            "s");
    out.set("run_s",
            median(perBatch(bs, [](const Batch &b) { return b.runSeconds(); })),
            "s");
    // The slowest cell's median, not the median of each repetition's
    // slowest cell: the latter picks up whichever cell a noise burst hit.
    double cell_max = 0;
    for (std::size_t i = 0; i < b0.runs.size(); ++i) {
        std::vector<double> v;
        for (const Batch &b : bs)
            v.push_back(b.cellSeconds(i));
        cell_max = std::max(cell_max, median(v));
    }
    out.set("cell_s_max", cell_max, "s");
    std::vector<double> aps, eps;
    for (const Batch &b : bs) {
        aps.push_back(accesses / b.runSeconds());
        eps.push_back(events / b.runSeconds());
    }
    out.set("accesses_per_s", median(aps), "1/s");
    out.set("events_per_s", median(eps), "1/s");
    out.set("events_per_access", ratio(events, accesses), "count");
    out.set("peak_rss_mb", peak_rss_mb, "MB");
}

struct Probes
{
    std::vector<ProbeResult> passes; ///< one summed result per pass
    std::vector<double> queue_ns;
};

void
perLayer(Metrics &out, std::span<const Batch> bs, const Probes &pr,
         double serial_ref_s, double parallel_run_s)
{
    const Batch &b0 = bs.front();
    auto sum = [&](auto fn) { return b0.sum(fn); };
    const double events = sum([](auto &r) { return r.m.sim_events; });
    const double ats = sum([](auto &r) { return r.m.ats_packets; });
    // Probe times are scaled to the nominal host like the run's.
    auto probe = [&](LayerCost ProbeResult::*field) {
        std::vector<double> v;
        for (const ProbeResult &p : pr.passes)
            v.push_back((p.*field).perOp());
        return b0.host_scale * median(v);
    };

    // sim
    out.set("sim.events", events, "count");
    std::vector<double> ns_ev;
    for (const Batch &b : bs)
        ns_ev.push_back(ratio(b.runSeconds() * 1e9, events));
    out.set("sim.host_ns_per_event", median(ns_ev), "ns");
    out.set("sim.schedule_fire_ns", b0.host_scale * median(pr.queue_ns),
            "ns");

    // tlb
    const double l1h = sum([](auto &r) { return r.l1_hits; });
    const double l1m = sum([](auto &r) { return r.l1_misses; });
    const double l2h = sum([](auto &r) { return r.m.l2_tlb_hits; });
    const double l2m = sum([](auto &r) { return r.m.l2_tlb_misses; });
    const double instr = sum([](auto &r) { return r.m.instructions; });
    const double retries = sum([](auto &r) { return r.m.mshr_retries; });
    out.set("tlb.l1_hit_ratio", ratio(l1h, l1h + l1m), "ratio");
    out.set("tlb.l2_hit_ratio", ratio(l2h, l2h + l2m), "ratio");
    out.set("tlb.l2_mpki", ratio(l2m, instr / 1000.0), "count");
    out.set("tlb.mshr_retries", retries, "count");
    out.set("tlb.mshr_retry_share", ratio(retries, events), "ratio");
    out.set("tlb.lookup_ns", probe(&ProbeResult::tlb_lookup), "ns");
    out.set("tlb.mshr_alloc_complete_ns", probe(&ProbeResult::mshr), "ns");

    // iommu (queue depth and ATS time: ATS-weighted means over cells)
    out.set("iommu.ats_requests", ats, "count");
    out.set("iommu.walks", sum([](auto &r) { return r.m.walks; }), "count");
    out.set("iommu.coalesced_ratio",
            ratio(sum([](auto &r) { return r.m.iommu_coalesced; }), ats),
            "ratio");
    out.set("iommu.avg_queue_depth",
            ratio(sum([](auto &r) {
                      return r.m.avg_pw_queue_depth * r.m.ats_packets;
                  }),
                  ats),
            "count");
    out.set("iommu.avg_ats_cycles",
            ratio(sum([](auto &r) {
                      return r.m.avg_ats_time * r.m.ats_packets;
                  }),
                  ats),
            "cycles");

    // mem
    out.set("mem.walk_ns", probe(&ProbeResult::walk), "ns");

    // core
    out.set("core.pec_calc_ns", probe(&ProbeResult::pec_calc), "ns");
    out.set("core.local_calc_hits",
            sum([](auto &r) { return r.m.local_calc_hits; }), "count");
    out.set("core.remote_hit_ratio",
            ratio(sum([](auto &r) { return r.m.remote_hits; }),
                  sum([](auto &r) { return r.m.remote_probes; })),
            "ratio");
    out.set("core.fallbacks",
            sum([](auto &r) { return r.m.fbarre_fallbacks; }), "count");

    // filters
    out.set("filters.lcf_precision",
            ratio(sum([](auto &r) { return r.m.lcf_true_positives; }),
                  sum([](auto &r) { return r.m.lcf_positives; })),
            "ratio");
    out.set("filters.updates",
            sum([](auto &r) { return r.m.filter_updates; }), "count");
    out.set("filters.contains_ns", probe(&ProbeResult::filter_contains),
            "ns");
    out.set("filters.insert_ns", probe(&ProbeResult::filter_insert), "ns");

    // noc
    out.set("noc.bytes", sum([](auto &r) { return r.m.noc_bytes; }),
            "bytes");
    out.set("noc.pcie_up_bytes",
            sum([](auto &r) { return r.m.pcie_up_bytes; }), "bytes");
    out.set("noc.pcie_down_bytes",
            sum([](auto &r) { return r.m.pcie_down_bytes; }), "bytes");

    // gpu
    const double remote = sum([](auto &r) { return r.m.remote_data; });
    const double local = sum([](auto &r) { return r.m.local_data; });
    out.set("gpu.remote_data_share", ratio(remote, remote + local), "ratio");
    barre::LogHistogram lat;
    for (const CellRun &r : b0.runs)
        lat.merge(r.latency);
    out.set("gpu.translation_lat_p50_cycles",
            static_cast<double>(lat.percentile(0.50)), "cycles");
    out.set("gpu.translation_lat_p99_cycles",
            static_cast<double>(lat.percentile(0.99)), "cycles");

    // driver
    const double mapped = sum([](auto &r) { return r.m.mapped_pages; });
    out.set("driver.mapped_pages", mapped, "count");
    out.set("driver.coalesced_share",
            ratio(sum([](auto &r) { return r.m.coalesced_pages; }), mapped),
            "ratio");

    // workloads
    double tenants = 0, retired = 0, p99_max = 0;
    for (const CellRun &r : b0.runs) {
        for (const barre::TenantMetrics &t : r.m.tenants) {
            tenants += 1;
            retired += t.retired > 0;
            p99_max = std::max(p99_max, static_cast<double>(t.lat_p99));
        }
    }
    out.set("workloads.tenants_retired", ratio(retired, tenants), "ratio");
    out.set("workloads.tenant_lat_p99_max_cycles", p99_max, "cycles");

    // harness
    out.set("harness.construct_s", median(perBatch(bs, [](const Batch &b) {
                return b.host_scale *
                       b.sum([](auto &r) { return r.construct_s; });
            })),
            "s");
    out.set("harness.load_s", median(perBatch(bs, [](const Batch &b) {
                return b.host_scale *
                       b.sum([](auto &r) { return r.load_s; });
            })),
            "s");
    const double run_s =
        median(perBatch(bs, [](const Batch &b) { return b.runSeconds(); }));
    out.set("harness.run_s", run_s, "s");
    out.set("harness.serial_ref_s", serial_ref_s, "s");
    out.set("harness.parallel_run_s", parallel_run_s, "s");
    out.set("harness.pdes_speedup", ratio(serial_ref_s, parallel_run_s),
            "ratio");
}

double
elapsedSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

int
benchMain(const Options &o)
{
    const Workload w = makeWorkload(o.workload, o.seed, o.scale_mult);
    SpanLog spans;
    SpanLog *log = o.trace ? &spans : nullptr;
    std::uint64_t attempted = 0, failed = 0;
    auto account = [&](const std::string &label, const std::string &why) {
        ++attempted;
        if (why.empty())
            return;
        ++failed;
        std::fprintf(stderr, "simbench: cell %s failed: %s\n", label.c_str(),
                     why.c_str());
    };

    // Partitioned cells: the tagged-serial reference, run first so every
    // repetition is checked against it, and the same cell on
    // min(4, cores) worker threads, checked against it too. The
    // threaded runs are timed only for the traced pdes speedup.
    std::vector<std::optional<RunMetrics>> serial(w.cells.size());
    double serial_ref_s = 0, parallel_run_s = 0;
    const std::uint32_t threads =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (!w.cells[i].check_serial)
            continue;
        CellSpec ref = w.cells[i];
        ref.cfg.sim_domains = 1;
        const std::int32_t id =
            log ? log->open("harness.serial_ref", -1, static_cast<int>(i))
                : -1;
        CellRun r = runCell(ref, CellChecks{}, nullptr, -1);
        if (log)
            log->close(id);
        account(ref.label + "/serial-ref", r.failure);
        serial_ref_s += r.run_wall_s;
        serial[i] = std::move(r.m);

        CellSpec par = w.cells[i];
        par.cfg.sim_threads = threads;
        CellChecks chk;
        chk.serial_ref = &*serial[i];
        chk.corrupt_reference = o.wrong_reference;
        std::vector<double> times;
        for (std::size_t k = 0; k < (o.trace ? kMinReps : 1); ++k) {
            const std::int32_t pid =
                log ? log->open("harness.parallel_run", -1,
                                static_cast<int>(i))
                    : -1;
            const CellRun pr = runCell(par, chk, nullptr, -1);
            if (log)
                log->close(pid);
            account(par.label + "/threaded", pr.failure);
            times.push_back(pr.run_wall_s);
        }
        parallel_run_s += median(times);
    }

    // Untraced runs get the whole budget; a traced run splits it
    // between the System runs and the layer probes. The first
    // repetition is a warm-up: checked but not timed, and run before
    // the reference computation first runs, so the peak RSS taken after
    // it is the simulator's own. In every later repetition each cell
    // is preceded by one reference call; the median of those calls
    // scales the run's host times (see Batch).
    const double budget = o.trace ? o.seconds / 2 : o.seconds;
    std::vector<Batch> batches;
    std::vector<double> references;
    double peak_rss_mb = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        const bool warm_up = batches.empty();
        Batch b;
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            if (!warm_up)
                references.push_back(referenceSeconds());
            CellChecks chk;
            chk.serial_ref = serial[i] ? &*serial[i] : nullptr;
            chk.first_rep = warm_up ? nullptr : &batches[0].runs[i].m;
            chk.corrupt_reference = o.wrong_reference;
            b.runs.push_back(
                runCell(w.cells[i], chk, log, static_cast<int>(i)));
            account(w.cells[i].label, b.runs.back().failure);
        }
        if (warm_up)
            peak_rss_mb = peakRssMb();
        const double spent = elapsedSince(t0);
        std::fprintf(stderr,
                     "simbench: repetition %zu%s done at %.2f s: setup "
                     "%.6f cpu s, run %.6f cpu s (%.6f wall s)\n",
                     batches.size(), warm_up ? " (warm-up)" : "", spent,
                     b.setupSeconds(), b.runSeconds(),
                     b.sum([](auto &r) { return r.run_wall_s; }));
        batches.push_back(std::move(b));
        if (batches.size() > kMinReps &&
            spent + spent / batches.size() > budget)
            break;
    }
    const double reference_s = median(references);
    for (Batch &b : batches)
        b.host_scale = kNominalReferenceS / reference_s;
    const std::span<const Batch> timed(batches.begin() + 1, batches.end());

    Probes probes;
    if (o.trace) {
        for (int p = 0; p < kProbePasses; ++p) {
            ProbeResult sum;
            for (std::size_t i = 0; i < w.cells.size(); ++i) {
                const ProbeResult r =
                    probeCell(w.cells[i], spans, static_cast<int>(i));
                account(w.cells[i].label + "/probe",
                        r.wrong_pec ? "PEC result differs from the page table"
                                    : "");
                sum.tlb_lookup.add(r.tlb_lookup);
                sum.mshr.add(r.mshr);
                sum.walk.add(r.walk);
                sum.pec_calc.add(r.pec_calc);
                sum.filter_contains.add(r.filter_contains);
                sum.filter_insert.add(r.filter_insert);
            }
            probes.passes.push_back(sum);
            probes.queue_ns.push_back(
                probeEventQueue(w.cells.front().cfg, o.seed + p, spans)
                    .perOp());
        }
    }

    // Simulated results: reported, not gated.
    const Batch &b0 = batches.front();
    std::uint64_t dig = 0xcbf29ce484222325ull;
    std::printf("workload %s seed %" PRIu64
                ": %zu cells x %zu timed repetitions after a warm-up%s\n",
                w.name.c_str(), o.seed, w.cells.size(), timed.size(),
                o.trace ? " (traced)" : "");
    std::map<std::string, std::map<bool, double>> cycles; // app -> fbarre?
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const RunMetrics &m = b0.runs[i].m;
        dig = digest(m, dig);
        std::printf("  cell %-22s sim_cycles %10" PRIu64
                    " accesses %8" PRIu64 " events %10" PRIu64
                    " events/access %8.3f mshr_retry_share %.3f\n",
                    w.cells[i].label.c_str(), std::uint64_t{m.runtime},
                    m.accesses, m.sim_events,
                    ratio(static_cast<double>(m.sim_events),
                          static_cast<double>(m.accesses)),
                    ratio(static_cast<double>(m.mshr_retries),
                          static_cast<double>(m.sim_events)));
        if (!w.cells[i].app.empty())
            cycles[w.cells[i].app]
                  [w.cells[i].cfg.mode == barre::TranslationMode::fbarre] =
                static_cast<double>(m.runtime);
    }
    std::printf("sim_digest %016" PRIx64 "\n", dig);
    std::printf("host speed: reference computation %.6f cpu s per call, "
                "median of %zu (nominal %.6f s); unscaled run %.6f cpu s; "
                "host times below are scaled by nominal / measured\n",
                reference_s, references.size(), kNominalReferenceS,
                median(perBatch(timed, [](const Batch &b) {
                    return b.runSeconds() / b.host_scale;
                })));
    std::vector<double> speedups;
    for (const auto &[app, by_mode] : cycles)
        if (by_mode.count(false) && by_mode.count(true) && by_mode.at(true) > 0)
            speedups.push_back(by_mode.at(false) / by_mode.at(true));
    if (speedups.empty())
        std::printf("simulated F-Barre/baseline speedup: n/a (no baseline "
                    "cells in this workload)\n");
    else
        std::printf("simulated F-Barre/baseline speedup: %.4f (geomean over "
                    "%zu apps)\n",
                    barre::geomean(speedups), speedups.size());
    std::printf("model accuracy: unvalidated against hardware; the repo "
                "holds only the paper's geomeans, so no error figure\n");
    std::printf("cold start: every cell starts with empty TLBs, filters "
                "and PEC buffers; setup_s is reported on its own\n");
    std::printf("failed_cells %.6f (%" PRIu64 " of %" PRIu64 ")\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                failed, attempted);

    if (!o.spans_path.empty()) {
        std::ofstream os(o.spans_path);
        spans.write(os);
        if (!os)
            std::fprintf(stderr, "simbench: could not write %s\n",
                         o.spans_path.c_str());
    }

    Metrics out;
    if (o.trace)
        perLayer(out, timed, probes, serial_ref_s, parallel_run_s);
    else
        endToEnd(out, timed, peak_rss_mb);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                out.json().c_str());
    return 0;
}

} // namespace
} // namespace simbench

int
main(int argc, char **argv)
{
    const simbench::Options o = simbench::parseArgs(argc, argv);
    try {
        return simbench::benchMain(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }
}
