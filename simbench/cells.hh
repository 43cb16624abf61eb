/**
 * @file
 * The benchmark's workloads as batches of simulator cells, and the
 * checked run of one cell through the System's public API.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "sim/stats.hh"
#include "spans.hh"

namespace simbench
{

/** One System built, loaded and run from scratch (cold TLBs/filters). */
struct CellSpec
{
    std::string label;
    std::string app; ///< suite application; empty for the churn cell
    barre::SystemConfig cfg;
    barre::ScenarioSpec spec;
    /**
     * Partitioned cell: check the run field-wise against the same cell
     * with sim_domains=1, and against it on several worker threads.
     */
    bool check_serial = false;
};

struct Workload
{
    std::string name;
    std::vector<CellSpec> cells;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed. The seed reaches every static
 * cell's AppParams::seed (through the scenario app registry) and the
 * churn clause's seed. @p scale_mult multiplies every cell's scale
 * (1 for measurement; the self-test shrinks it). Fatal on unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      double scale_mult);

/** What a cell's outputs are checked against, besides its own counts. */
struct CellChecks
{
    /** Tagged-serial reference of a partitioned cell (else null). */
    const barre::RunMetrics *serial_ref = nullptr;
    /** The cell's first repetition in this process (else null). */
    const barre::RunMetrics *first_rep = nullptr;
    /** Self-test hook: shift every reference so each check must fail. */
    bool corrupt_reference = false;
};

/**
 * One cell's outputs and host times. The three phases are in process
 * CPU seconds, so time the process waits for a CPU does not count;
 * run_wall_s is run() in wall seconds, for multi-threaded runs.
 */
struct CellRun
{
    barre::RunMetrics m;
    double construct_s = 0;
    double load_s = 0;
    double run_s = 0;
    double run_wall_s = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    /** Issue-to-data translation latency; static scenarios only. */
    barre::LogHistogram latency;
    /** First failed output check; empty when the cell passed. */
    std::string failure;

    double cellSeconds() const { return construct_s + load_s + run_s; }
};

/**
 * Construct, load and run @p cell, then check its outputs. With a span
 * log the three calls are recorded as spans of @p cell_id.
 */
CellRun runCell(const CellSpec &cell, const CellChecks &checks,
                SpanLog *spans, std::int32_t cell_id);

/** CPU seconds used so far by every thread of this process. */
double cpuSeconds();

/** FNV-1a over every RunMetrics field, tenants included. */
std::uint64_t digest(const barre::RunMetrics &m, std::uint64_t h);

} // namespace simbench
