/**
 * @file
 * End-to-end bitwise-identity proof for partitioned simulation: a full
 * F-Barre run produces byte-identical metrics (csvRow), stats dumps,
 * and per-tag firing digests across sim_domains {1, 2, 4, 8} ×
 * sim_threads {1, 2, 8}, with the heap-only queue kept as a
 * differential reference. Also covers the PDES-compatible feature
 * set (GMMU platform, multicast, validation) and the documented
 * fallback: non-partitionable configurations run the legacy serial
 * queue and match sim_domains=0 exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/system.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

struct RunOut
{
    RunMetrics metrics;
    std::string csv;
    std::string stats;
    std::vector<std::uint64_t> digests;
    bool tagged = false;
};

RunOut
runCfg(SystemConfig cfg, const char *app_name = "cov")
{
    System sys(std::move(cfg));
    sys.loadScenario(ScenarioSpec::solo(app_name));
    RunMetrics m = sys.run();
    m.app = app_name;

    RunOut out;
    out.metrics = m;
    out.csv = csvRow(m);
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
    if (TaggedEngine *eng = sys.eventQueue().taggedEngine()) {
        out.tagged = true;
        out.digests = eng->fireDigests();
    }
    return out;
}

SystemConfig
fbarreSmall()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::fbarre;
    cfg.driver.merge_limit = 2;
    cfg.iommu.coal_aware_sched = true;
    cfg.workload_scale = 0.04;
    return cfg;
}

void
expectIdentical(const RunOut &a, const RunOut &b, const char *what)
{
    EXPECT_EQ(a.csv, b.csv) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    // Every field, including the ones no output prints.
    EXPECT_TRUE(a.metrics == b.metrics) << what;
    EXPECT_TRUE(a.digests == b.digests) << what;
}

TEST(PdesDeterminism, FBarreRunIsIdenticalAcrossDomainsThreads)
{
    SystemConfig base = fbarreSmall();
    base.sim_domains = 1;
    base.sim_threads = 1;
    const RunOut ref = runCfg(base);
    ASSERT_TRUE(ref.tagged);

    for (std::uint32_t domains : {2u, 4u, 8u}) {
        for (std::uint32_t threads : {1u, 2u, 8u}) {
            SystemConfig cfg = fbarreSmall();
            cfg.sim_domains = domains;
            cfg.sim_threads = threads;
            const RunOut got = runCfg(cfg);
            EXPECT_TRUE(got.tagged);
            expectIdentical(ref, got,
                            ("domains=" + std::to_string(domains) +
                             " threads=" + std::to_string(threads))
                                .c_str());
        }
    }

    // Differential reference #2: the pure-heap queue must not change
    // the schedule either (heap vs calendar front).
    SystemConfig heap = fbarreSmall();
    heap.heap_only_queue = true;
    heap.sim_domains = 4;
    heap.sim_threads = 8;
    expectIdentical(ref, runCfg(heap), "heap_only domains=4 threads=8");
}

TEST(PdesDeterminism, GmmuPlatformIsIdenticalAcrossDomains)
{
    SystemConfig base;
    base.use_gmmu = true;
    base.mode = TranslationMode::barre;
    base.workload_scale = 0.04;
    base.sim_domains = 1;
    base.sim_threads = 1;
    const RunOut ref = runCfg(base);
    ASSERT_TRUE(ref.tagged);

    SystemConfig cfg = base;
    cfg.sim_domains = 4;
    cfg.sim_threads = 8;
    expectIdentical(ref, runCfg(cfg), "gmmu domains=4");
}

TEST(PdesDeterminism, MulticastAndValidationRunPartitioned)
{
    SystemConfig base = fbarreSmall();
    base.iommu.multicast = true;
    base.validate_translations = true;
    base.sim_domains = 1;
    base.sim_threads = 1;
    const RunOut ref = runCfg(base);
    ASSERT_TRUE(ref.tagged);

    SystemConfig cfg = base;
    cfg.sim_domains = 4;
    cfg.sim_threads = 8;
    const RunOut got = runCfg(cfg);
    EXPECT_TRUE(got.tagged);
    expectIdentical(ref, got, "multicast+validate domains=4");
}

TEST(PdesDeterminism, NonPartitionableConfigFallsBackToLegacy)
{
    // Plain demand paging partitions now; adding chiplet-side
    // validation reintroduces the read race (validators walk the page
    // table the host-side fault handler mutates) and must fall back.
    SystemConfig legacy;
    legacy.mode = TranslationMode::baseline;
    legacy.driver.demand_paging = true;
    legacy.validate_translations = true;
    legacy.workload_scale = 0.02;
    legacy.sim_domains = 0;
    const RunOut ref = runCfg(legacy);
    EXPECT_FALSE(ref.tagged);

    SystemConfig cfg = legacy;
    cfg.sim_domains = 4; // must warn and fall back, not partition
    const RunOut got = runCfg(cfg);
    EXPECT_FALSE(got.tagged);
    EXPECT_EQ(ref.csv, got.csv);
    EXPECT_EQ(ref.stats, got.stats);
    EXPECT_TRUE(ref.metrics == got.metrics);
}

/**
 * The configurations PR "message-path modeling" unblocked: each one
 * used to fall back to the serial queue; now every one must partition
 * and stay bitwise identical to the tagged serial reference across
 * every domain and thread count.
 */
class NewlyPartitioned : public ::testing::TestWithParam<const char *>
{
  protected:
    static SystemConfig
    cfgFor(const std::string &name)
    {
        if (name == "valkyrie")
            return SystemConfig::valkyrieCfg();
        if (name == "least")
            return SystemConfig::leastCfg();
        if (name == "shared_l2_tlb") {
            SystemConfig cfg = SystemConfig::baselineAts();
            cfg.shared_l2_tlb = true;
            return cfg;
        }
        if (name == "migration") {
            SystemConfig cfg = SystemConfig::baselineAts();
            cfg.migration.enabled = true;
            cfg.migration.threshold = 4;
            cfg.driver.policy = MappingPolicyKind::round_robin;
            return cfg;
        }
        if (name == "demand_paging") {
            SystemConfig cfg = SystemConfig::baselineAts();
            cfg.driver.demand_paging = true;
            return cfg;
        }
        if (name == "shared+valkyrie") {
            SystemConfig cfg = SystemConfig::valkyrieCfg();
            cfg.shared_l2_tlb = true;
            return cfg;
        }
        if (name == "shared+migration") {
            SystemConfig cfg = SystemConfig::baselineAts();
            cfg.shared_l2_tlb = true;
            cfg.migration.enabled = true;
            cfg.migration.threshold = 4;
            cfg.driver.policy = MappingPolicyKind::round_robin;
            return cfg;
        }
        SystemConfig cfg = SystemConfig::fbarreCfg();
        cfg.fbarre.oracle_sharing = true;
        return cfg;
    }
};

TEST_P(NewlyPartitioned, IdenticalAcrossDomainsAndThreads)
{
    SystemConfig base = cfgFor(GetParam());
    base.workload_scale = 0.04;
    base.sim_domains = 1;
    base.sim_threads = 1;
    const RunOut ref = runCfg(base);
    ASSERT_TRUE(ref.tagged)
        << GetParam() << " fell back to the legacy serial queue";

    for (std::uint32_t domains : {2u, 4u, 8u}) {
        for (std::uint32_t threads : {1u, 8u}) {
            SystemConfig cfg = cfgFor(GetParam());
            cfg.workload_scale = 0.04;
            cfg.sim_domains = domains;
            cfg.sim_threads = threads;
            const RunOut got = runCfg(cfg);
            EXPECT_TRUE(got.tagged);
            expectIdentical(
                ref, got,
                (std::string(GetParam()) +
                 " domains=" + std::to_string(domains) +
                 " threads=" + std::to_string(threads))
                    .c_str());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllUnblockedConfigs, NewlyPartitioned,
                         ::testing::Values("valkyrie", "least",
                                           "shared_l2_tlb", "migration",
                                           "fbarre_oracle",
                                           "demand_paging",
                                           "shared+valkyrie",
                                           "shared+migration"));

TEST(PdesLookahead, TrueMinimumOverAllCrossDomainLinks)
{
    // Host split off only: PCIe bounds the epoch.
    SystemConfig base = SystemConfig::baselineAts();
    base.workload_scale = 0.04;
    base.sim_domains = 2;
    {
        System sys(base);
        ASSERT_TRUE(sys.partitioned());
        EXPECT_EQ(sys.pdesLookahead(), 1 + base.pcie.latency);
    }

    // Chiplets split too: the NoC hop is shorter than PCIe.
    SystemConfig spread = base;
    spread.sim_domains = 5;
    {
        System sys(spread);
        ASSERT_TRUE(sys.partitioned());
        EXPECT_EQ(sys.pdesLookahead(), 1 + spread.noc.latency);
    }

    // The shared-TLB links are shorter than the NoC hop, so wiring the
    // shared block must tighten the epochs further.
    SystemConfig shared = spread;
    shared.shared_l2_tlb = true;
    {
        System sys(shared);
        ASSERT_TRUE(sys.partitioned());
        ASSERT_LT(shared.shared_tlb.latency, shared.noc.latency);
        EXPECT_EQ(sys.pdesLookahead(), 1 + shared.shared_tlb.latency);
    }

    // The F-Barre oracle's cross-chiplet filter updates land at
    // exactly oracle_latency, with no serialization cycle.
    SystemConfig oracle = SystemConfig::fbarreCfg();
    oracle.fbarre.oracle_sharing = true;
    oracle.workload_scale = 0.04;
    oracle.sim_domains = 5;
    {
        System sys(oracle);
        ASSERT_TRUE(sys.partitioned());
        EXPECT_EQ(sys.pdesLookahead(), oracle.fbarre.oracle_latency);
    }
}

TEST(PdesDeterminism, MigrationShootdownTrafficIsModeled)
{
    // The accuracy half of the conversion: shootdown rounds used to be
    // free (zero-cycle synchronous calls); now every round shows up as
    // request/broadcast/ack traffic with a PCIe-bounded latency.
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.migration.enabled = true;
    cfg.migration.threshold = 4;
    cfg.driver.policy = MappingPolicyKind::round_robin;
    cfg.workload_scale = 0.04;
    cfg.sim_domains = 4;
    cfg.sim_threads = 1;

    System sys(cfg);
    ASSERT_TRUE(sys.partitioned());
    sys.loadScenario(ScenarioSpec::solo("cov"));
    (void)sys.run();

    AcudMigrator *mig = sys.migrator();
    ASSERT_NE(mig, nullptr);
    EXPECT_GT(mig->migrations(), 0u);
    EXPECT_EQ(mig->shootdownRounds(), mig->migrations());
    EXPECT_EQ(mig->shootdownAcks(),
              mig->shootdownRounds() * sys.config().chiplets);
    ASSERT_GT(mig->roundLatency().count(), 0u);
    // A round starts once the request has arrived host-side; shootdown
    // down + ack up can never beat two PCIe traversals.
    EXPECT_GT(mig->roundLatency().mean(),
              2.0 * sys.config().pcie.latency);
}

} // namespace
