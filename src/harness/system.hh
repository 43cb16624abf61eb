/**
 * @file
 * Full-system assembly: chiplets, CUs, interconnect, PCIe, IOMMU/GMMU,
 * driver, translation service, and (optionally) the migration engine —
 * wired per a SystemConfig.
 */

#pragma once

#include <memory>
#include <ostream>
#include <vector>

#include "harness/config.hh"
#include "harness/metrics.hh"
#include "sim/domain_guard.hh"
#include "workloads/scenario.hh"
#include "workloads/scenario_engine.hh"
#include "workloads/trace.hh"
#include "workloads/workload.hh"

namespace barre
{

class System
{
  public:
    /**
     * Build from a frozen config handle. Many Systems may share one
     * handle (runMany builds one per named config, not per cell).
     */
    explicit System(SystemConfigHandle cfg);
    /** Convenience: normalizes and freezes @p cfg internally. */
    explicit System(SystemConfig cfg);
    ~System();

    /**
     * Load the machine's tenants from a ScenarioSpec — the one
     * workload-selection entry point (workloads/scenario.hh).
     *
     * Static scenarios (every arrival at tick 0) preload each tenant's
     * buffers and CTAs exactly like the historic single/multi-app
     * paths; ScenarioSpec::solo()/pair() reproduce those runs bitwise.
     * Dynamic scenarios (non-zero arrivals or a churn clause) run
     * through the scenario engine: tenants launch at their arrival
     * ticks and exit with full driver/IOMMU teardown plus an ASID
     * shootdown storm across the chiplets. Call once, before run().
     */
    void loadScenario(const ScenarioSpec &spec);

    /**
     * Allocate @p app's buffers through the driver and record the
     * access streams its workload model generates — no simulation run
     * (barre_sim --record-trace, trace regression pinning). Applies
     * cfg.workload_scale exactly like the scenario preload path.
     */
    Trace recordAppTrace(const AppParams &app);

    /**
     * Load a recorded/imported trace (workloads/trace.hh). CTAs are
     * co-located with the chiplet owning their first touched page.
     * @param instr_per_access MPKI denominator weight per access.
     */
    void loadTrace(const Trace &trace, double instr_per_access = 4.0);

    /** Run to completion and harvest metrics. */
    RunMetrics run();

    /**
     * Multi-tenant invariant: no TLB level (chiplet L1s, owned L2s,
     * the IOMMU TLB) still holds an entry for an exited tenant.
     * Checked automatically after every scenario-engine run; panics
     * (std::logic_error) on a stale ASID. Public so the teardown tests
     * can corrupt a TLB and watch it bite.
     */
    void auditNoStaleAsid() const;

    /**
     * Dump every component's counters (gem5-style stats listing) to
     * @p os: the visitStats() entries that carry a name. Callable any
     * time; most useful after run().
     */
    void dumpStats(std::ostream &os) const;

    /// @name Component access (tests, custom experiments)
    /// @{
    EventQueue &eventQueue() { return eq_; }
    /**
     * The domain-ownership audit (sim/domain_guard.hh). Every component
     * is bound at construction; the mode resolves at run() time (off by
     * default — pre-arm report mode here, or export
     * $BARRE_DOMAIN_AUDIT, to collect violations).
     */
    DomainGuard &domainGuard() { return guard_; }
    GpuDriver &driver() { return *driver_; }
    Iommu &iommu() { return *iommu_; }
    GmmuSystem *gmmu() { return gmmu_.get(); }
    Chiplet &chiplet(ChipletId c) { return *chiplets_[c]; }
    FBarreService *fbarre() { return fbarre_.get(); }
    AcudMigrator *migrator() { return migrator_.get(); }
    SharedTlbService *sharedTlb() { return shared_tlb_svc_.get(); }
    /** The churn engine (null unless a dynamic scenario is loaded). */
    ScenarioEngine *scenarioEngine() { return engine_.get(); }
    const SystemConfig &config() const { return cfg_; }
    const MemoryMap &memoryMap() const { return *map_; }
    /** Every buffer allocated so far, in allocation order. */
    const std::vector<DataAlloc> &allocations() const
    {
        return all_allocs_;
    }
    /** Whether this run executes partitioned (tagged engine active). */
    bool partitioned() const { return pdes_.on; }
    /** The epoch lookahead the partition plan computed (1 when off). */
    Tick pdesLookahead() const { return pdes_.lookahead; }
    /** Why @p cfg cannot be partitioned, or nullptr if it can. */
    static const char *partitionBlocker(const SystemConfig &cfg);
    /// @}

  private:
    /**
     * The one list of component statistics: calls @p f with a Stat
     * (system.cc) per entry, in dump order, under each component's
     * presence guard. dumpStats() prints the list and run() harvests
     * it into RunMetrics, so a new statistic is one entry here.
     */
    template <class F>
    void visitStats(F &&f) const;
    /** Allocate an app's buffers through the driver. */
    std::vector<DataAlloc> allocate(const AppParams &app, ProcessId pid);
    /**
     * Generate the app's CTAs and distribute them over CUs (co-located
     * per the mapping policy); @p tenant_scale multiplies the CTA
     * count on top of cfg.workload_scale. Preload path only — dynamic
     * tenants go through planTenant().
     */
    void loadWorkload(const AppParams &app,
                      const std::vector<DataAlloc> &allocs,
                      double tenant_scale = 1.0);
    /**
     * Scenario-engine launch hook: allocate the arriving tenant's
     * buffers and plan its CTA placement (host context).
     */
    ScenarioEngine::LaunchPlan planTenant(const AppParams &app,
                                          ProcessId pid);
    /** Why @p cfg cannot run a dynamic scenario, or nullptr. */
    const char *scenarioBlocker() const;
    void buildService();
    /** Apply cfg_.sim_domains: tag/domain map, lookahead, enableTags. */
    void setupPartition();
    /** Bind every component to its owning sequencing tag. */
    void setupDomainGuard();
    ChipletId homeOf(ProcessId pid, Vpn vpn) const;

    SystemConfigHandle cfg_handle_;
    /** Alias for *cfg_handle_; keeps member access terse. */
    const SystemConfig &cfg_;
    EventQueue eq_;
    DomainGuard guard_;
    std::unique_ptr<MemoryMap> map_;
    std::unique_ptr<Interconnect> noc_;
    std::unique_ptr<Pcie> pcie_;
    std::unique_ptr<Iommu> iommu_;
    std::unique_ptr<GmmuSystem> gmmu_;
    std::unique_ptr<GpuDriver> driver_;
    std::unique_ptr<AcudMigrator> migrator_;

    std::vector<std::unique_ptr<Chiplet>> chiplets_;
    std::vector<std::vector<std::unique_ptr<Cu>>> cus_;
    std::vector<std::uint32_t> next_cu_; ///< round-robin CTA placement

    std::unique_ptr<SharedTlbService> shared_tlb_svc_;
    std::unique_ptr<ScenarioEngine> engine_;

    std::unique_ptr<AtsService> ats_service_;
    std::unique_ptr<GmmuService> gmmu_service_;
    std::unique_ptr<ValkyrieService> valkyrie_;
    std::unique_ptr<LeastService> least_;
    std::unique_ptr<FBarreService> fbarre_;
    TranslationService *active_service_ = nullptr;

    /** Every allocation, for GMMU page-table homing. */
    std::vector<DataAlloc> all_allocs_;

    double total_instructions_ = 0;
    std::uint64_t total_accesses_ = 0;
    std::uint32_t cus_with_work_ = 0;
    std::uint32_t cus_done_ = 0;
    Tick finish_tick_ = 0;
    bool ran_ = false;

    /** The conservative-PDES partition plan (empty when sim_domains is
     *  0 or the configuration fell back to the legacy serial queue). */
    struct Pdes
    {
        bool on = false;
        std::uint32_t domains = 1;
        Tick lookahead = 1;
    };
    Pdes pdes_;

    /**
     * Per-tag CU completion tracking for partitioned runs. Each cell is
     * only touched from its own tag's execution context (one worker at
     * a time), so cache-line alignment is all the isolation needed.
     */
    struct alignas(64) TagDone
    {
        std::uint32_t with_work = 0;
        std::uint32_t done = 0;
        Tick finish = 0;
    };
    std::vector<TagDone> tag_done_;
};

} // namespace barre

