/**
 * @file
 * The domain-ownership ratchet (sim/domain_guard.hh).
 *
 * Three layers of proof:
 *  - Corruption tests: a component touched from the wrong execution
 *    context actually fires — panic mode throws, report mode records a
 *    deduplicated violation.
 *  - Golden ratchet: every non-partitionable configuration runs in
 *    report mode and its violation *pattern* (component class, site,
 *    owner/accessor domain classes) must match the checked-in golden
 *    list exactly. Converting a synchronous path to a message path
 *    must shrink the golden; a new synchronous path fails the diff.
 *    Regenerate with BARRE_UPDATE_GOLDEN=1 after inspecting the delta.
 *  - Clean configs: every partitionable configuration runs audit-clean
 *    under sim_domains>0 and bitwise identical to the tagged serial
 *    reference (sim_domains=1).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/system.hh"
#include "tlb/tlb.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

TEST(DomainGuardCorruption, PanicFiresOnCrossDomainTouch)
{
    DomainGuard guard;
    guard.setMode(DomainAuditMode::panic);
    Tlb tlb(TlbParams{});
    tlb.bindDomain(&guard, chipletTag(0), "gpu0.l2tlb");

    EventQueue eq;
    {
        EventQueue::TagScope own(eq, chipletTag(0));
        EXPECT_NO_THROW(tlb.peek(1, 0));
    }
    {
        EventQueue::TagScope other(eq, chipletTag(1));
        EXPECT_THROW(tlb.peek(1, 0), std::logic_error);
    }
    // Outside any scope the ambient context is the host tag — still
    // not the owner.
    EXPECT_THROW(tlb.peek(1, 0), std::logic_error);
}

TEST(DomainGuardCorruption, ReportModeDeduplicates)
{
    DomainGuard guard;
    guard.setMode(DomainAuditMode::report);
    Tlb tlb(TlbParams{});
    tlb.bindDomain(&guard, chipletTag(0), "gpu0.l2tlb");

    EventQueue eq;
    EventQueue::TagScope other(eq, chipletTag(1));
    tlb.peek(1, 0);
    tlb.peek(1, 1); // same pattern, different operand: must dedup
    TlbEntry te;
    te.pid = 1;
    te.vpn = 2;
    te.pfn = 3;
    te.valid = true;
    tlb.insert(te);

    EXPECT_FALSE(guard.clean());
    auto report = guard.report();
    ASSERT_EQ(report.size(), 2u);
    EXPECT_EQ(report[0].component, "gpu0.l2tlb");
    EXPECT_EQ(report[0].site, "insert");
    EXPECT_EQ(report[0].owner, chipletTag(0));
    EXPECT_EQ(report[0].accessor, chipletTag(1));
    EXPECT_EQ(report[0].count, 1u);
    EXPECT_EQ(report[1].site, "peek");
    EXPECT_EQ(report[1].count, 2u);

    auto lines = guard.goldenLines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "gpu.l2tlb insert chiplet chiplet");
    EXPECT_EQ(lines[1], "gpu.l2tlb peek chiplet chiplet");

    guard.clear();
    EXPECT_TRUE(guard.clean());
}

TEST(DomainGuardCorruption, WildcardOwnerAcceptsEveryTag)
{
    DomainGuard guard;
    guard.setMode(DomainAuditMode::panic);
    Tlb tlb(TlbParams{});
    tlb.bindDomain(&guard, kAnyDomain, "shared.tlb");

    EventQueue eq;
    EXPECT_NO_THROW(tlb.peek(1, 0));
    EventQueue::TagScope scope(eq, chipletTag(3));
    EXPECT_NO_THROW(tlb.peek(1, 0));
}

TEST(DomainGuardCorruption, UnboundComponentChecksNothing)
{
    Tlb tlb(TlbParams{});
    EXPECT_NO_THROW(tlb.peek(1, 0));
}

/** Run @p cfg small in report mode and harvest the golden lines. */
std::vector<std::string>
auditRun(SystemConfig cfg)
{
    cfg.workload_scale = 0.02;
    System sys(std::move(cfg));
    sys.domainGuard().setMode(DomainAuditMode::report);
    sys.loadScenario(ScenarioSpec::solo("cov"));
    (void)sys.run();
    return sys.domainGuard().goldenLines();
}

struct BlockedConfig
{
    const char *name;
    SystemConfig cfg;
};

std::vector<BlockedConfig>
blockedConfigs()
{
    // The message-path conversions retired every write-side crossing —
    // valkyrie/least/fbarre (plain and layered on the shared L2 TLB),
    // migration (including shared-TLB shootdowns), and demand paging
    // all live in PartitionableConfigsAuditCleanAndBitwiseIdentical
    // now. The two configs still blocked both race on *reads* (a
    // chiplet walking the page table while the host mutates it), which
    // the write-instrumented guard cannot witness: their runs must
    // stay audit-silent, and the golden stays empty.
    std::vector<BlockedConfig> out;

    SystemConfig demand = SystemConfig::baselineAts();
    demand.driver.demand_paging = true;
    demand.validate_translations = true;
    out.push_back({"demand_paging+validate", demand});

    SystemConfig mg = SystemConfig::baselineAts();
    mg.use_gmmu = true;
    mg.mode = TranslationMode::barre;
    mg.migration.enabled = true;
    mg.migration.threshold = 4;
    mg.driver.policy = MappingPolicyKind::round_robin;
    out.push_back({"migration+gmmu", mg});
    return out;
}

TEST(DomainAudit, NonPartitionableConfigsMatchGolden)
{
    std::ostringstream actual;
    for (auto &bc : blockedConfigs()) {
        for (const std::string &line : auditRun(bc.cfg))
            actual << bc.name << " " << line << "\n";
    }

    const std::string golden_path =
        std::string(BARRE_TESTS_DIR) + "/harness/domain_audit_golden.txt";
    if (std::getenv("BARRE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << actual.str();
        GTEST_SKIP() << "golden regenerated at " << golden_path;
    }

    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good())
        << "missing golden " << golden_path
        << " — run once with BARRE_UPDATE_GOLDEN=1 to create it";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(want.str(), actual.str())
        << "domain-ownership pattern changed. If a synchronous "
           "cross-domain path was removed (good), regenerate with "
           "BARRE_UPDATE_GOLDEN=1; if a new one appeared, route it "
           "over a Link/message path instead (DESIGN.md §8).";
}

TEST(DomainAudit, BlockedConfigsAreReadRaceOnly)
{
    // Every remaining blocker is a read-side race the write-
    // instrumented guard cannot witness — so a blocked config that
    // *does* report has grown a new synchronous write path, and one
    // whose blocker disappears from partitionBlocker without review
    // would wrongly partition. Pin both directions: the runs stay
    // audit-silent AND the blocker is still in force.
    for (auto &bc : blockedConfigs()) {
        EXPECT_TRUE(auditRun(bc.cfg).empty())
            << bc.name << " reported violations — a synchronous "
            << "write-side crossing appeared; route it over a "
            << "Link/message path (DESIGN.md §8)";
        EXPECT_NE(System::partitionBlocker(bc.cfg), nullptr)
            << bc.name << " is no longer blocked — if its read race "
            << "was actually removed, move it to the partitionable "
            << "identity suite";
    }
}

TEST(DomainAudit, GoldenOnlyShrinks)
{
    // CI ratchet: the golden may only shrink. The message-path PRs
    // brought it from 21 entries down to zero; it must never grow
    // again — every cross-domain touch rides a Link/message path.
    constexpr std::size_t kCeiling = 0;
    const std::string golden_path =
        std::string(BARRE_TESTS_DIR) + "/harness/domain_audit_golden.txt";
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            ++lines;
    EXPECT_LE(lines, kCeiling)
        << "the domain-audit golden grew — new synchronous cross-domain "
           "paths are not allowed; route them over a Link/message path "
           "(DESIGN.md §8)";
}

struct CleanRun
{
    RunMetrics metrics;
    std::string csv;
    std::string stats;
    bool clean = false;
};

CleanRun
cleanRun(SystemConfig cfg, std::uint32_t domains)
{
    cfg.workload_scale = 0.04;
    cfg.sim_domains = domains;
    cfg.sim_threads = 1;
    System sys(std::move(cfg));
    sys.domainGuard().setMode(DomainAuditMode::report);
    sys.loadScenario(ScenarioSpec::solo("cov"));
    RunMetrics m = sys.run();

    CleanRun out;
    out.metrics = m;
    out.csv = csvRow(m);
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
    out.clean = sys.domainGuard().clean();
    return out;
}

TEST(DomainAudit, PartitionableConfigsAuditCleanAndBitwiseIdentical)
{
    std::vector<std::pair<const char *, SystemConfig>> cfgs;
    cfgs.emplace_back("baseline", SystemConfig::baselineAts());
    cfgs.emplace_back("barre", SystemConfig::barreCfg());
    cfgs.emplace_back("fbarre", SystemConfig::fbarreCfg());
    SystemConfig gmmu;
    gmmu.use_gmmu = true;
    gmmu.mode = TranslationMode::barre;
    cfgs.emplace_back("gmmu", gmmu);

    // The configs the message-path conversions unblocked.
    cfgs.emplace_back("valkyrie", SystemConfig::valkyrieCfg());
    cfgs.emplace_back("least", SystemConfig::leastCfg());
    SystemConfig shared = SystemConfig::baselineAts();
    shared.shared_l2_tlb = true;
    cfgs.emplace_back("shared_l2_tlb", shared);
    SystemConfig mig = SystemConfig::baselineAts();
    mig.migration.enabled = true;
    mig.migration.threshold = 4;
    mig.driver.policy = MappingPolicyKind::round_robin;
    cfgs.emplace_back("migration", mig);
    SystemConfig oracle = SystemConfig::fbarreCfg();
    oracle.fbarre.oracle_sharing = true;
    cfgs.emplace_back("fbarre_oracle", oracle);

    // And the second wave: demand paging, services layered on the
    // shared L2 TLB, and shared-TLB migration shootdowns.
    SystemConfig demand = SystemConfig::baselineAts();
    demand.driver.demand_paging = true;
    cfgs.emplace_back("demand_paging", demand);
    SystemConfig sv = SystemConfig::valkyrieCfg();
    sv.shared_l2_tlb = true;
    cfgs.emplace_back("shared+valkyrie", sv);
    SystemConfig sl = SystemConfig::leastCfg();
    sl.shared_l2_tlb = true;
    cfgs.emplace_back("shared+least", sl);
    SystemConfig sf = SystemConfig::fbarreCfg();
    sf.shared_l2_tlb = true;
    cfgs.emplace_back("shared+fbarre", sf);
    SystemConfig sm = SystemConfig::baselineAts();
    sm.shared_l2_tlb = true;
    sm.migration.enabled = true;
    sm.migration.threshold = 4;
    sm.driver.policy = MappingPolicyKind::round_robin;
    cfgs.emplace_back("shared+migration", sm);

    for (auto &[name, cfg] : cfgs) {
        const CleanRun serial = cleanRun(cfg, 1);
        EXPECT_TRUE(serial.clean) << name << " serial";
        const CleanRun part = cleanRun(cfg, 4);
        EXPECT_TRUE(part.clean) << name << " partitioned";
        EXPECT_EQ(serial.csv, part.csv) << name;
        EXPECT_EQ(serial.stats, part.stats) << name;
        EXPECT_TRUE(serial.metrics == part.metrics) << name;
    }
}

} // namespace
