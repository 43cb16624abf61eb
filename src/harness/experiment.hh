/**
 * @file
 * One-call experiment helpers and plain-text table output used by the
 * benchmark harness (one bench binary per paper figure/table).
 *
 * runMany() is the sweep workhorse: it fans independent simulations out
 * across host cores (work-stealing pool, $BARRE_JOBS workers) while
 * keeping results bitwise identical to the serial loop — every
 * simulation owns its EventQueue, Rng and component counters, and
 * results are collected by index, never by completion order.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "workloads/suite.hh"

namespace barre
{

/**
 * Build a system, run one scenario, return its metrics
 * (RunMetrics::app = spec.label()). The historic single-app and
 * multi-programmed runs are ScenarioSpec::solo(name) and
 * ::pair(a, b); dynamic specs run the churn engine.
 */
RunMetrics runScenario(const SystemConfig &cfg,
                       const ScenarioSpec &spec);

/**
 * Same, from a frozen config handle. runMany() uses this to build every
 * cell of a column from one shared immutable SystemConfig instead of a
 * per-cell copy.
 */
RunMetrics runScenario(const SystemConfigHandle &cfg,
                       const ScenarioSpec &spec);

/** One column of an experiment: a named system configuration. */
struct NamedConfig
{
    std::string name;
    SystemConfig cfg;
};

/**
 * Run the full (config x scenario) grid — config-major, i.e. result
 * index c * specs.size() + s — across @p jobs workers (0 =
 * $BARRE_JOBS, else hardware concurrency; 1 = plain serial loop, no
 * threads spawned). Each cell is runScenario() with
 * RunMetrics::config set to the config name. Results are
 * deterministic and independent of the worker count.
 *
 * Cells are scheduled longest-expected-first (cellCostHint(), or the
 * cell's last measured wall time when $BARRE_COST_CACHE names a cache
 * file) so a long `gups` cell never tails the batch; results are still
 * collected by grid index, so output is unaffected by the ordering.
 */
std::vector<RunMetrics> runMany(const std::vector<NamedConfig> &cfgs,
                                const std::vector<ScenarioSpec> &specs,
                                unsigned jobs = 0);

/**
 * Generic form: run arbitrary simulation thunks, return their results
 * in argument order. Thunks must be independent (no shared mutable
 * state); each should build and run its own System.
 *
 * In the parallel path each thunk's warn()/inform() output is
 * buffered per cell and replayed in argument order once the batch
 * finishes (sim/logging.hh LogBlock), so log output is byte-identical
 * to the serial run instead of interleaving across cells.
 */
std::vector<RunMetrics>
runManyJobs(const std::vector<std::function<RunMetrics()>> &sims,
            unsigned jobs = 0);

/**
 * Like runManyJobs(sims, jobs), but starts thunks in descending
 * @p cost_hints order (longest-expected-first) so expensive cells do
 * not tail the batch. @p cost_hints must be empty (= argument order)
 * or one hint per thunk; any monotone estimate works — only the
 * relative order matters. Results are identical to the unhinted form.
 */
std::vector<RunMetrics>
runManyJobs(const std::vector<std::function<RunMetrics()>> &sims,
            const std::vector<double> &cost_hints, unsigned jobs = 0);

/**
 * Expected relative wall cost of one cell, from the app's Table I
 * MPKI and access count: high-MPKI apps fire far more walk/IOMMU
 * events per access, so they dominate a batch. Used by runMany() to
 * order cells longest-expected-first.
 */
double cellCostHint(const AppParams &app);

/** Scenario form: the sum of its resolved tenants' hints x scale. */
double cellCostHint(const ScenarioSpec &spec);

/**
 * Fixed-width text table, printed in the shape of the paper's figures
 * (apps as rows, configurations as columns).
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void addRow(const std::string &label,
                const std::vector<double> &values, int precision = 3);

    /** Render to stdout. */
    void print(const std::string &title = "") const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helper. */
std::string fmt(double v, int precision = 3);

} // namespace barre

