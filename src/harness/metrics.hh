/**
 * @file
 * Metrics extracted from one simulation run — the raw material for every
 * figure and table in the evaluation.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace barre
{

/**
 * Per-tenant lifecycle and tail-latency metrics from a multi-tenant
 * scenario run (empty for static single/multi-app runs).
 */
struct TenantMetrics
{
    std::string app;
    std::uint32_t pid = 0;

    Tick arrival = 0; ///< launch tick
    Tick finish = 0;  ///< last access drained (host-observed)
    Tick retired = 0; ///< teardown + shootdown storm completed
    std::uint64_t accesses = 0;

    /// @name Translation latency percentiles, cycles (issue ->
    /// translated data access; LogHistogram representatives)
    /// @{
    std::uint64_t lat_p50 = 0;
    std::uint64_t lat_p95 = 0;
    std::uint64_t lat_p99 = 0;
    /// @}

    /** High-water L2 TLB entries held, summed over chiplets. */
    std::uint64_t peak_l2_tlb = 0;

    /** Wall the tenant ran: arrival to last access. */
    Tick runtime() const { return finish - arrival; }

    friend bool operator==(const TenantMetrics &,
                           const TenantMetrics &) = default;
};

struct RunMetrics
{
    std::string config;
    std::string app;

    Tick runtime = 0;
    std::uint64_t accesses = 0;
    double instructions = 0;
    std::uint64_t sim_events = 0; ///< events fired by the EventQueue

    /// @name TLB / translation
    /// @{
    /** Never harvested, so always 0. Kept because simbench's digest()
     *  reads it: filling or removing it changes sim_digest. */
    std::uint64_t l1_tlb_hits = 0;
    std::uint64_t l2_tlb_hits = 0;
    std::uint64_t l2_tlb_misses = 0;
    double l2_mpki = 0;
    std::uint64_t mshr_retries = 0;
    /// @}

    /// @name IOMMU (Fig 16)
    /// @{
    std::uint64_t ats_packets = 0;
    std::uint64_t walks = 0;
    std::uint64_t iommu_coalesced = 0; ///< PEC-calculated at the IOMMU
    std::uint64_t iommu_tlb_hits = 0;
    double avg_ats_time = 0;
    double avg_pw_queue_depth = 0;
    /// @}

    /// @name F-Barre intra-MCM (Fig 17/18/19)
    /// @{
    std::uint64_t local_calc_hits = 0;
    std::uint64_t remote_probes = 0;
    std::uint64_t remote_hits = 0;
    std::uint64_t fbarre_fallbacks = 0;
    std::uint64_t lcf_positives = 0;
    std::uint64_t lcf_true_positives = 0;
    std::uint64_t filter_updates = 0;
    /// @}

    /// @name Data path / NUMA
    /// @{
    std::uint64_t local_data = 0;
    std::uint64_t remote_data = 0;
    std::uint64_t noc_bytes = 0;
    std::uint64_t pcie_up_bytes = 0;
    std::uint64_t pcie_down_bytes = 0;
    /// @}

    /// @name GMMU (Fig 21)
    /// @{
    std::uint64_t gmmu_local_walks = 0;
    std::uint64_t gmmu_remote_walks = 0;
    std::uint64_t gmmu_coalesced = 0;
    /// @}

    /// @name Driver / migration
    /// @{
    std::uint64_t coalesced_pages = 0;
    std::uint64_t mapped_pages = 0;
    std::uint64_t migrations = 0;
    /// @}

    /** Per-tenant rows (scenario-engine runs only), pid order. */
    std::vector<TenantMetrics> tenants;

    /** Fraction of translation misses served without the IOMMU. */
    double
    intraMcmFraction() const
    {
        std::uint64_t served = local_calc_hits + remote_hits;
        std::uint64_t total = served + ats_packets;
        return total ? static_cast<double>(served) / total : 0.0;
    }

    /** Field-wise equality (used by determinism assertions). */
    friend bool operator==(const RunMetrics &, const RunMetrics &) = default;
};

/** Geometric mean of speedups (paper-style averaging). */
double geomean(const std::vector<double> &xs);

} // namespace barre

