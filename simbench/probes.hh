/**
 * @file
 * Traced per-layer host costs. Each probe drives one layer class of the
 * simulator directly, on inputs taken from the cell it stands for (the
 * cell's recorded access stream, the driver's page tables and PEC
 * entries, the config's filter geometry and link latencies), and times
 * the calls as spans. A span covers one batch of calls: a single call
 * costs tens of nanoseconds, the same order as reading the clock.
 */

#pragma once

#include <cstdint>
#include <string>

#include "cells.hh"
#include "spans.hh"

namespace simbench
{

/** Host nanoseconds and calls accumulated over all cells for one layer. */
struct LayerCost
{
    double ns = 0;
    std::uint64_t ops = 0;

    void add(const LayerCost &o) { ns += o.ns, ops += o.ops; }
    double perOp() const { return ops ? ns / ops : 0.0; }
};

/** One probe pass over one cell. */
struct ProbeResult
{
    LayerCost tlb_lookup;     ///< L1 then L2 Tlb lookup+insert per access
    LayerCost mshr;           ///< Mshr allocate+complete per L2 miss
    LayerCost walk;           ///< PageTable::walk per L2 miss
    LayerCost pec_calc;       ///< pec::calcPending per coalesced L2 miss
    LayerCost filter_contains;
    LayerCost filter_insert;
    /** PEC results that disagreed with the page table. */
    std::uint64_t wrong_pec = 0;
};

/**
 * Probe the layers @p cell uses, once. A fresh System records the
 * cell's access stream (System::recordAppTrace) and supplies the
 * driver's page table and PEC entries; the TLB replay runs cold.
 */
ProbeResult probeCell(const CellSpec &cell, SpanLog &spans,
                      std::int32_t cell_id);

/**
 * EventQueue schedule+fire cost, in ns per event, over a population of
 * one outstanding event per CU whose delays are drawn from @p cfg's
 * link and lookup latencies.
 */
LayerCost probeEventQueue(const barre::SystemConfig &cfg, std::uint64_t seed,
                          SpanLog &spans);

} // namespace simbench
