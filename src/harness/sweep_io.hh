/**
 * @file
 * Cluster-scale sweep plumbing shared by `tools/sweep` and
 * `tools/merge_csv`: strict CLI numeric parsing, deterministic shard
 * partitioning, and the per-shard CSV + manifest format.
 *
 * A sweep split as `--shard 0/N` .. `--shard N-1/N` across processes
 * or hosts emits one manifest-carrying CSV per shard; mergeShards()
 * validates the manifests (same grid, no missing or duplicate shard)
 * and reassembles the full grid in canonical (config, app) order,
 * byte-identical to the same sweep run unsharded.
 */

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace barre
{

/** `--shard i/N`: this process runs cells {k : k mod N == i}. */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;

    friend bool operator==(const ShardSpec &, const ShardSpec &) =
        default;
};

/// @name Strict CLI parsing
/// Unlike atoi/atof, these are fatal on non-numeric or out-of-range
/// input instead of silently yielding 0 — `--jobs x` must not become
/// "use every core" and `--scale x` must not become a degenerate run.
/// @{

/** Parse a non-negative integer; fatal on garbage or overflow. */
unsigned parseUnsignedArg(const std::string &s, const char *what);

/** Parse a finite value > 0 (workload scale); fatal otherwise. */
double parseScaleArg(const std::string &s, const char *what);

/**
 * Parse a chiplet count in 1..PecEntry::max_gpus; fatal otherwise.
 * The bound is the model's: a PEC entry maps at most 16 order
 * positions, and the PTE's 11 ignored bits have no encoding for a
 * coalescing order past 15.
 */
unsigned parseChipletsArg(const std::string &s);

/** Parse "i/N" with N >= 1 and i < N; fatal otherwise. */
ShardSpec parseShardArg(const std::string &s);

/// @}

/**
 * Global cell indices owned by @p shard in a @p total-cell grid:
 * round-robin (k mod count == index), ascending. Round-robin keeps
 * shards balanced even when cost correlates with grid position (all
 * of one config's cells landing in one shard).
 */
std::vector<std::size_t> shardCells(std::size_t total,
                                    const ShardSpec &shard);

/**
 * One shard's worth of sweep output: the manifest plus the shard's
 * CSV rows, in ascending global-cell order (the order shardCells()
 * returns; row k of the file is cell shardCells(total, shard)[k]).
 */
struct ShardFile
{
    ShardSpec shard;
    std::string grid;  ///< sweep signature: modes, apps, scale
    std::size_t total_cells = 0;
    std::string header; ///< CSV column header
    std::vector<std::string> rows;

    friend bool operator==(const ShardFile &, const ShardFile &) =
        default;
};

/** Serialize manifest + header + rows (what `sweep --shard` writes). */
void writeShardCsv(std::ostream &os, const ShardFile &sf);

/**
 * Parse a shard file; @p name labels error messages. Fatal on a
 * missing or malformed manifest or a row-count mismatch.
 */
ShardFile readShardCsv(std::istream &is, const std::string &name);

/**
 * Reassemble the full grid from all N shards. Validates that every
 * shard agrees on (count, grid, total_cells, header), that shard
 * indices 0..N-1 each appear exactly once, and that every cell is
 * covered; fatal otherwise. Returns the merged CSV text — header plus
 * total_cells rows in canonical order, byte-identical to the
 * unsharded sweep's writeCsv() output.
 */
std::string mergeShards(const std::vector<ShardFile> &shards);

} // namespace barre
