/**
 * @file
 * barre_sim - the command-line front end to the simulator.
 *
 * Run any Table-I application (or an imported trace) under any
 * translation configuration and print metrics or the full stats dump.
 *
 *   barre_sim --app atax --mode fbarre --merge 2
 *   barre_sim --app gups --mode baseline --ptws 32 --stats
 *   barre_sim --scenario cov+atax --mode fbarre
 *   barre_sim --scenario 'mvt*0.5@2000+poisson:8:2:7'
 *   barre_sim --tenants 64 --churn 2 --seed 7 --mode barre
 *   barre_sim --trace my.trace --mode barre
 *   barre_sim --app fft --record-trace fft.trace
 *   barre_sim --list
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/experiment.hh"
#include "harness/sweep_io.hh"
#include "workloads/trace.hh"

using namespace barre;

namespace
{

void
usage()
{
    std::puts(
        "usage: barre_sim [options]\n"
        "  --app NAME          Table-I application (default atax)\n"
        "  --scenario SPEC     multi-tenant scenario (grammar in\n"
        "                      workloads/scenario.hh; @FILE reads one)\n"
        "  --tenants N         Poisson churn: N arriving tenants\n"
        "  --churn R           arrivals per 100k cycles (default 1)\n"
        "  --seed S            churn RNG seed (default 1)\n"
        "  --trace FILE        replay an access trace instead\n"
        "  --record-trace FILE write the app's trace and exit\n"
        "  --mode M            baseline|valkyrie|least|barre|fbarre\n"
        "  --merge N           F-Barre merge limit (1/2/4)\n"
        "  --chiplets N        GPU chiplets, 1..16 (default 4)\n"
        "  --ptws N            IOMMU walkers, 0 = infinite\n"
        "  --page-size S       4k|64k|2m\n"
        "  --policy P          lasp|coda|chunking|rr\n"
        "  --migration         enable ACUD page migration\n"
        "  --gmmu              GMMU platform (MGvm)\n"
        "  --iommu-tlb         add the 2048-entry IOMMU TLB\n"
        "  --demand-paging     map pages at first touch\n"
        "  --multicast         speculative PFN multicast (ablation)\n"
        "  --domains N         event domains (0 = legacy serial queue)\n"
        "  --sim-threads N     workers advancing the domains (0 = auto)\n"
        "  --scale F           workload scale factor (default 1.0)\n"
        "  --validate          check every translation vs page table\n"
        "  --stats             dump all component stats after the run\n"
        "  --list              list the application suite and exit\n");
}

TranslationMode
parseMode(const std::string &m)
{
    if (m == "baseline")
        return TranslationMode::baseline;
    if (m == "valkyrie")
        return TranslationMode::valkyrie;
    if (m == "least")
        return TranslationMode::least;
    if (m == "barre")
        return TranslationMode::barre;
    if (m == "fbarre")
        return TranslationMode::fbarre;
    barre_fatal("unknown mode '%s'", m.c_str());
}

MappingPolicyKind
parsePolicy(const std::string &p)
{
    if (p == "lasp")
        return MappingPolicyKind::lasp;
    if (p == "coda")
        return MappingPolicyKind::coda;
    if (p == "chunking")
        return MappingPolicyKind::chunking;
    if (p == "rr")
        return MappingPolicyKind::round_robin;
    barre_fatal("unknown policy '%s'", p.c_str());
}

PageSize
parsePageSize(const std::string &s)
{
    if (s == "4k")
        return PageSize::size4k;
    if (s == "64k")
        return PageSize::size64k;
    if (s == "2m")
        return PageSize::size2m;
    barre_fatal("unknown page size '%s'", s.c_str());
}

} // namespace

int
run(int argc, char **argv)
{
    std::string app_name = "atax";
    bool app_given = false;
    std::string scenario_text;
    unsigned tenants = 0;
    double churn = 1.0;
    std::uint64_t seed = 1;
    std::string trace_file;
    std::string record_file;
    SystemConfig cfg = SystemConfig::baselineAts();
    bool want_stats = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                barre_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            for (const auto &a : standardSuite()) {
                std::printf("%-8s %-20s %-4s paper MPKI %9.3f\n",
                            a.name.c_str(), a.full_name.c_str(),
                            a.category.c_str(), a.paper_mpki);
            }
            return 0;
        } else if (arg == "--app") {
            app_name = next();
            app_given = true;
        } else if (arg == "--scenario") {
            scenario_text = next();
        } else if (arg == "--tenants") {
            tenants = parseUnsignedArg(next(), "--tenants");
        } else if (arg == "--churn") {
            churn = parseScaleArg(next(), "--churn");
        } else if (arg == "--seed") {
            seed = parseUnsignedArg(next(), "--seed");
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--record-trace") {
            record_file = next();
        } else if (arg == "--mode") {
            TranslationMode m = parseMode(next());
            std::uint32_t merge = cfg.driver.merge_limit;
            switch (m) {
              case TranslationMode::baseline:
                cfg = SystemConfig::baselineAts();
                break;
              case TranslationMode::valkyrie:
                cfg = SystemConfig::valkyrieCfg();
                break;
              case TranslationMode::least:
                cfg = SystemConfig::leastCfg();
                break;
              case TranslationMode::barre:
                cfg = SystemConfig::barreCfg();
                break;
              case TranslationMode::fbarre:
                cfg = SystemConfig::fbarreCfg(merge);
                break;
            }
        } else if (arg == "--merge") {
            cfg.driver.merge_limit = parseUnsignedArg(next(), "--merge");
        } else if (arg == "--chiplets") {
            cfg.chiplets = parseChipletsArg(next());
        } else if (arg == "--ptws") {
            cfg.iommu.ptws = parseUnsignedArg(next(), "--ptws");
        } else if (arg == "--page-size") {
            cfg.page_size = parsePageSize(next());
        } else if (arg == "--policy") {
            cfg.driver.policy = parsePolicy(next());
        } else if (arg == "--migration") {
            cfg.migration.enabled = true;
        } else if (arg == "--gmmu") {
            cfg.use_gmmu = true;
        } else if (arg == "--iommu-tlb") {
            cfg.iommu.tlb_enabled = true;
        } else if (arg == "--demand-paging") {
            cfg.driver.demand_paging = true;
        } else if (arg == "--multicast") {
            cfg.iommu.multicast = true;
        } else if (arg == "--domains") {
            cfg.sim_domains = parseUnsignedArg(next(), "--domains");
        } else if (arg == "--sim-threads") {
            cfg.sim_threads =
                parseUnsignedArg(next(), "--sim-threads");
        } else if (arg == "--scale") {
            cfg.workload_scale = parseScaleArg(next(), "--scale");
        } else if (arg == "--validate") {
            cfg.validate_translations = true;
        } else if (arg == "--stats") {
            want_stats = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

    // Workload selection: --scenario / --tenants are whole-machine
    // specs; mixing them with each other or with --app would silently
    // drop one, so it is fatal instead.
    if (!scenario_text.empty() && (app_given || tenants > 0))
        barre_fatal("--scenario conflicts with --app/--tenants");
    if (tenants > 0 && app_given)
        barre_fatal("--tenants conflicts with --app");

    const ScenarioSpec spec =
        !scenario_text.empty()
            ? parseScenarioSpec(scenario_text)
            : (tenants > 0 ? ScenarioSpec::poisson(tenants, churn, seed)
                           : ScenarioSpec::solo(app_name));

    System sys(cfg);

    if (!record_file.empty()) {
        const AppParams &app = appByName(app_name);
        std::ofstream os(record_file);
        if (!os)
            barre_fatal("cannot write %s", record_file.c_str());
        writeTrace(os, sys.recordAppTrace(app));
        std::printf("wrote trace of %s to %s\n", app.name.c_str(),
                    record_file.c_str());
        return 0;
    }

    if (!trace_file.empty()) {
        std::ifstream is(trace_file);
        if (!is)
            barre_fatal("cannot read %s", trace_file.c_str());
        sys.loadTrace(readTrace(is),
                      appByName(app_name).instr_per_access);
    } else {
        sys.loadScenario(spec);
    }

    RunMetrics m = sys.run();

    TextTable t({"metric", "value"});
    t.addRow({"config", to_string(cfg.mode)});
    t.addRow({"app", trace_file.empty() ? spec.label() : trace_file});
    t.addRow({"runtime (cycles)", std::to_string(m.runtime)});
    t.addRow({"accesses", std::to_string(m.accesses)});
    t.addRow({"sim events", std::to_string(m.sim_events)});
    t.addRow({"L2 TLB MPKI", fmt(m.l2_mpki)});
    t.addRow({"MSHR retries", std::to_string(m.mshr_retries)});
    t.addRow({"ATS packets", std::to_string(m.ats_packets)});
    t.addRow({"IOMMU walks", std::to_string(m.walks)});
    t.addRow({"PEC-calculated (IOMMU)", std::to_string(m.iommu_coalesced)});
    t.addRow({"local calc hits", std::to_string(m.local_calc_hits)});
    t.addRow({"remote calc hits", std::to_string(m.remote_hits)});
    t.addRow({"remote data accesses", std::to_string(m.remote_data)});
    t.addRow({"migrations", std::to_string(m.migrations)});
    t.print("barre_sim");

    if (!m.tenants.empty()) {
        TextTable tt({"tenant", "pid", "arrival", "finish", "runtime",
                      "lat p50", "p95", "p99", "peak L2 TLB"});
        for (const auto &ten : m.tenants) {
            tt.addRow({ten.app, std::to_string(ten.pid),
                       std::to_string(ten.arrival),
                       std::to_string(ten.finish),
                       std::to_string(ten.runtime()),
                       std::to_string(ten.lat_p50),
                       std::to_string(ten.lat_p95),
                       std::to_string(ten.lat_p99),
                       std::to_string(ten.peak_l2_tlb)});
        }
        tt.print("tenants");
    }

    // Under BARRE_DOMAIN_AUDIT=report the run collects cross-domain
    // touches instead of throwing; surface the deduplicated table.
    const auto violations = sys.domainGuard().report();
    if (!violations.empty()) {
        std::printf("\n");
        TextTable dt({"component", "site", "owner", "touched from",
                      "count"});
        for (const auto &v : violations)
            dt.addRow({v.component, v.site, domainTagName(v.owner),
                       domainTagName(v.accessor),
                       std::to_string(v.count)});
        dt.print("domain audit: cross-domain touches");
    }

    if (want_stats) {
        std::printf("\n");
        sys.dumpStats(std::cout);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // barre_fatal and barre_panic print their message before throwing;
    // exit with a status rather than abort on the escaped exception.
    try {
        return run(argc, argv);
    } catch (const std::exception &) {
        return 1;
    }
}
