/**
 * @file
 * Full-system integration tests: every evaluated configuration runs to
 * completion, conserves requests, and translates correctly (validated
 * against the page table on every fill).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/experiment.hh"

using namespace barre;

namespace
{

constexpr double test_scale = 0.04; // ~40 CTAs: fast but non-trivial

SystemConfig
withScale(SystemConfig cfg)
{
    cfg.workload_scale = test_scale;
    cfg.validate_translations = true;
    return cfg;
}

} // namespace

class ModeSweep : public ::testing::TestWithParam<TranslationMode>
{};

TEST_P(ModeSweep, RunsToCompletionWithValidatedTranslations)
{
    SystemConfig cfg;
    cfg.mode = GetParam();
    if (cfg.mode == TranslationMode::fbarre) {
        cfg.driver.merge_limit = 2;
        cfg.iommu.coal_aware_sched = true;
    }
    cfg = withScale(cfg);

    RunMetrics m = runScenario(cfg, ScenarioSpec::solo("cov"));
    EXPECT_GT(m.runtime, 0u);
    EXPECT_GT(m.accesses, 1000u);
    EXPECT_GT(m.l2_tlb_misses, 0u);
    // Conservation: every translation miss was served by exactly one
    // of the paths.
    if (cfg.mode == TranslationMode::fbarre) {
        EXPECT_GT(m.local_calc_hits + m.remote_hits + m.ats_packets, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ModeSweep,
    ::testing::Values(TranslationMode::baseline,
                      TranslationMode::valkyrie, TranslationMode::least,
                      TranslationMode::barre, TranslationMode::fbarre));

TEST(SystemIntegration, BarreCoalescesAtTheIommu)
{
    RunMetrics m =
        runScenario(withScale(SystemConfig::barreCfg()), ScenarioSpec::solo("atax"));
    EXPECT_GT(m.iommu_coalesced, 0u);
    EXPECT_LT(m.walks, m.ats_packets);
}

TEST(SystemIntegration, FBarreCutsAtsTraffic)
{
    RunMetrics base = runScenario(withScale(SystemConfig::baselineAts()),
                                  ScenarioSpec::solo("atax"));
    RunMetrics fb =
        runScenario(withScale(SystemConfig::fbarreCfg(2)), ScenarioSpec::solo("atax"));
    EXPECT_LT(fb.ats_packets, base.ats_packets);
    EXPECT_GT(fb.local_calc_hits + fb.remote_hits, 0u);
    EXPECT_LE(fb.runtime, base.runtime); // should not be slower
}

TEST(SystemIntegration, GmmuPlatformRuns)
{
    SystemConfig cfg = withScale(SystemConfig::fbarreCfg(2));
    cfg.use_gmmu = true;
    RunMetrics m = runScenario(cfg, ScenarioSpec::solo("cov"));
    EXPECT_GT(m.gmmu_local_walks + m.gmmu_remote_walks +
                  m.gmmu_coalesced, 0u);
    EXPECT_EQ(m.ats_packets, 0u); // the IOMMU is out of the loop
}

TEST(SystemIntegration, MigrationRunsAndMigrates)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.workload_scale = test_scale;
    cfg.migration.enabled = true;
    cfg.migration.threshold = 4;
    // Round-robin CTAs force remote accesses that trigger ACUD.
    cfg.driver.policy = MappingPolicyKind::round_robin;
    RunMetrics m = runScenario(cfg, ScenarioSpec::solo("cov"));
    EXPECT_GT(m.migrations, 0u);
    EXPECT_GT(m.runtime, 0u);
}

TEST(SystemIntegration, SharedL2TlbHypothetical)
{
    SystemConfig cfg = withScale(SystemConfig::baselineAts());
    cfg.shared_l2_tlb = true;
    RunMetrics shared = runScenario(cfg, ScenarioSpec::solo("cov"));
    RunMetrics priv =
        runScenario(withScale(SystemConfig::baselineAts()), ScenarioSpec::solo("cov"));
    // The shared TLB merges duplicate translations across chiplets.
    EXPECT_LE(shared.ats_packets, priv.ats_packets);
}

TEST(SystemIntegration, SuperPageModeRuns)
{
    SystemConfig cfg = withScale(SystemConfig::baselineAts());
    cfg.page_size = PageSize::size2m;
    RunMetrics m = runScenario(cfg, ScenarioSpec::solo("cov"));
    EXPECT_GT(m.runtime, 0u);
    // 2 MB pages slash the translation count.
    RunMetrics small =
        runScenario(withScale(SystemConfig::baselineAts()), ScenarioSpec::solo("cov"));
    EXPECT_LT(m.ats_packets, small.ats_packets);
}

TEST(SystemIntegration, ChipletCountSweepRuns)
{
    for (std::uint32_t n : {2u, 8u}) {
        SystemConfig cfg = withScale(SystemConfig::fbarreCfg(1));
        cfg.chiplets = n;
        RunMetrics m = runScenario(cfg, ScenarioSpec::solo("fwt"));
        EXPECT_GT(m.runtime, 0u) << n;
    }
}

TEST(SystemIntegration, MultiProgrammedPairRuns)
{
    SystemConfig cfg = withScale(SystemConfig::fbarreCfg(2));
    RunMetrics m = runScenario(cfg, ScenarioSpec::pair("cov", "atax"));
    EXPECT_EQ(m.app, "cov+atax");
    EXPECT_GT(m.accesses, 2000u);
}

TEST(SystemIntegration, MpkiBandsRoughlyOrdered)
{
    // Class ordering must hold even at small scale: a high app misses
    // far more than a low app.
    SystemConfig cfg = withScale(SystemConfig::baselineAts());
    RunMetrics low = runScenario(cfg, ScenarioSpec::solo("gemv"));
    RunMetrics high = runScenario(cfg, ScenarioSpec::solo("gups"));
    EXPECT_GT(high.l2_mpki, 10 * low.l2_mpki);
}

TEST(SystemIntegration, InstructionAccountingConsistent)
{
    SystemConfig cfg = withScale(SystemConfig::baselineAts());
    RunMetrics m = runScenario(cfg, ScenarioSpec::solo("fft"));
    // instructions = accesses * instr_per_access for a single app.
    EXPECT_NEAR(m.instructions,
                m.accesses * appByName("fft").instr_per_access,
                m.instructions * 0.01);
}

TEST(SystemIntegration, RunIsOneShot)
{
    System sys(withScale(SystemConfig::baselineAts()));
    sys.loadScenario(ScenarioSpec::solo("fft"));
    sys.run();
    EXPECT_THROW(sys.run(), std::logic_error);
}

TEST(SystemIntegration, RejectsMoreChipletsThanThePteCanEncode)
{
    SystemConfig cfg = SystemConfig::fbarreCfg();
    cfg.chiplets = 17;
    try {
        System sys(cfg);
        FAIL() << "a 17-chiplet System was built";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("SystemConfig::chiplets: 17 is outside 1..16"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("PecEntry::max_gpus"), std::string::npos)
            << what;
        EXPECT_NE(what.find("11-bit"), std::string::npos) << what;
    }
}
