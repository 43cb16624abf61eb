/**
 * @file
 * Tests for System::dumpStats, and a byte-identity golden over every
 * stat output: the dump, the CSV header and row, and the tenant rows.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/csv.hh"
#include "harness/experiment.hh"

using namespace barre;

namespace
{

std::uint64_t
statValue(const std::string &dump, const std::string &key)
{
    auto pos = dump.find(key + " ");
    if (pos == std::string::npos)
        return ~std::uint64_t{0};
    return std::strtoull(dump.c_str() + pos + key.size() + 1, nullptr,
                         10);
}

} // namespace

TEST(StatsDump, CoversCoreComponentsAndMatchesMetrics)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.workload_scale = 0.04;
    System sys(cfg);
    sys.loadScenario(ScenarioSpec::solo("cov"));
    RunMetrics m = sys.run();

    std::ostringstream os;
    sys.dumpStats(os);
    std::string dump = os.str();

    EXPECT_EQ(statValue(dump, "sim.ticks"), m.runtime);
    EXPECT_EQ(statValue(dump, "iommu.ats_requests"), m.ats_packets);
    EXPECT_EQ(statValue(dump, "iommu.walks"), m.walks);
    EXPECT_EQ(statValue(dump, "fbarre.remote_hits"), m.remote_hits);
    EXPECT_EQ(statValue(dump, "driver.mapped_pages"), m.mapped_pages);
    // Per-chiplet lines exist for every chiplet.
    for (int c = 0; c < 4; ++c) {
        EXPECT_NE(dump.find("gpu" + std::to_string(c) +
                            ".l2tlb.misses"),
                  std::string::npos);
    }
}

TEST(StatsDump, BaselineOmitsFBarreSection)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.workload_scale = 0.04;
    System sys(cfg);
    sys.loadScenario(ScenarioSpec::solo("fft"));
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    EXPECT_EQ(os.str().find("fbarre."), std::string::npos);
    EXPECT_EQ(os.str().find("gmmu."), std::string::npos);
    // Static runs have no scenario engine, hence no scenario section.
    EXPECT_EQ(os.str().find("scenario."), std::string::npos);
}

/**
 * Every stat output of three small runs, byte for byte. Together the
 * runs reach each conditional dump section: a baseline that omits them
 * all, F-Barre under a dynamic scenario (fbarre.*, scenario.* and tenant
 * rows), and the GMMU platform with migration (gmmu.*, migration.*).
 * A refactor of the stat plumbing must leave this file untouched; only
 * a deliberate model change may regenerate it (BARRE_UPDATE_GOLDEN=1),
 * saying why in CHANGES.md.
 */
TEST(StatsDump, OutputsMatchGolden)
{
    SystemConfig gmmu_mig = SystemConfig::baselineAts();
    gmmu_mig.use_gmmu = true;
    gmmu_mig.mode = TranslationMode::barre;
    gmmu_mig.migration.enabled = true;
    gmmu_mig.migration.threshold = 4;
    gmmu_mig.driver.policy = MappingPolicyKind::round_robin;

    const std::pair<SystemConfig, const char *> runs[] = {
        {SystemConfig::baselineAts(), "fft"},
        {SystemConfig::fbarreCfg(2), "fft+atax@2000"},
        {gmmu_mig, "cov"},
    };

    std::ostringstream actual;
    for (const auto &[cfg, spec_text] : runs) {
        SystemConfig c = cfg;
        c.workload_scale = 0.04;
        const ScenarioSpec spec = parseScenarioSpec(spec_text);
        System sys(c);
        sys.loadScenario(spec);
        RunMetrics m = sys.run();
        m.app = spec.label();

        actual << "== " << m.config << ' ' << m.app << '\n'
               << csvHeader() << '\n'
               << csvRow(m) << '\n';
        if (!m.tenants.empty()) {
            actual << tenantCsvHeader() << '\n';
            for (const TenantMetrics &t : m.tenants)
                actual << tenantCsvRow(t) << '\n';
        }
        // The RunMetrics fields that neither the CSV nor the dump prints.
        actual << "metrics.sim_events " << m.sim_events << '\n'
               << "metrics.l1_tlb_hits " << m.l1_tlb_hits << '\n'
               << "metrics.avg_pw_queue_depth " << m.avg_pw_queue_depth
               << '\n'
               << "metrics.lcf_positives " << m.lcf_positives << '\n'
               << "metrics.lcf_true_positives " << m.lcf_true_positives
               << '\n';
        sys.dumpStats(actual);
    }

    const std::string golden_path =
        std::string(BARRE_TESTS_DIR) + "/harness/stats_golden.txt";
    if (std::getenv("BARRE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out << actual.str();
        GTEST_SKIP() << "golden regenerated at " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(want.str(), actual.str())
        << "a stat output changed; a refactor must keep every byte";
}
