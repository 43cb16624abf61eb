#include "harness/sweep_io.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>

#include "core/pec.hh"
#include "harness/config.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

constexpr const char *kShardKey = "# barre-sweep-shard: ";
constexpr const char *kGridKey = "# barre-sweep-grid: ";
constexpr const char *kCellsKey = "# barre-sweep-cells: ";

/** Read one line, fatal at EOF. */
std::string
expectLine(std::istream &is, const std::string &name, const char *what)
{
    std::string line;
    if (!std::getline(is, line))
        barre_fatal("%s: truncated shard file, expected %s",
                    name.c_str(), what);
    return line;
}

/** Strip "key" off the front of @p line, fatal on mismatch. */
std::string
expectKey(const std::string &line, const char *key,
          const std::string &name)
{
    if (line.rfind(key, 0) != 0)
        barre_fatal("%s: expected '%s...' but got '%s' — not a "
                    "sweep shard file?",
                    name.c_str(), key, line.c_str());
    return line.substr(std::string(key).size());
}

} // namespace

unsigned
parseUnsignedArg(const std::string &s, const char *what)
{
    if (s.empty())
        barre_fatal("%s: empty value", what);
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || s[0] == '-')
        barre_fatal("%s: '%s' is not a non-negative integer", what,
                    s.c_str());
    if (errno == ERANGE || v > std::numeric_limits<unsigned>::max())
        barre_fatal("%s: '%s' is out of range", what, s.c_str());
    return static_cast<unsigned>(v);
}

unsigned
parseChipletsArg(const std::string &s)
{
    unsigned n = parseUnsignedArg(s, "--chiplets");
    requireSupportedChiplets(n, "--chiplets");
    return n;
}

double
parseScaleArg(const std::string &s, const char *what)
{
    if (s.empty())
        barre_fatal("%s: empty value", what);
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        barre_fatal("%s: '%s' is not a number", what, s.c_str());
    if (errno == ERANGE || !std::isfinite(v))
        barre_fatal("%s: '%s' is out of range", what, s.c_str());
    if (v <= 0)
        barre_fatal("%s: must be > 0, got '%s'", what, s.c_str());
    return v;
}

ShardSpec
parseShardArg(const std::string &s)
{
    std::size_t slash = s.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= s.size())
        barre_fatal("--shard: expected i/N, got '%s'", s.c_str());
    ShardSpec spec;
    spec.index = parseUnsignedArg(s.substr(0, slash), "--shard index");
    spec.count =
        parseUnsignedArg(s.substr(slash + 1), "--shard count");
    if (spec.count < 1)
        barre_fatal("--shard: count must be >= 1, got '%s'", s.c_str());
    if (spec.index >= spec.count)
        barre_fatal("--shard: index %u out of range for %u shards",
                    spec.index, spec.count);
    return spec;
}

std::vector<std::size_t>
shardCells(std::size_t total, const ShardSpec &shard)
{
    std::vector<std::size_t> cells;
    for (std::size_t k = shard.index; k < total; k += shard.count)
        cells.push_back(k);
    return cells;
}

void
writeShardCsv(std::ostream &os, const ShardFile &sf)
{
    os << kShardKey << sf.shard.index << '/' << sf.shard.count << '\n'
       << kGridKey << sf.grid << '\n'
       << kCellsKey << sf.total_cells << '\n'
       << sf.header << '\n';
    for (const auto &row : sf.rows)
        os << row << '\n';
}

ShardFile
readShardCsv(std::istream &is, const std::string &name)
{
    ShardFile sf;
    sf.shard = parseShardArg(
        expectKey(expectLine(is, name, "shard manifest"), kShardKey,
                  name));
    sf.grid = expectKey(expectLine(is, name, "grid manifest"),
                        kGridKey, name);
    sf.total_cells = parseUnsignedArg(
        expectKey(expectLine(is, name, "cell-count manifest"),
                  kCellsKey, name),
        "shard cell count");
    sf.header = expectLine(is, name, "CSV header");
    if (sf.header.rfind("config,app", 0) != 0)
        barre_fatal("%s: '%s' does not look like a sweep CSV header",
                    name.c_str(), sf.header.c_str());
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        sf.rows.push_back(line);
    }
    std::size_t expect =
        shardCells(sf.total_cells, sf.shard).size();
    if (sf.rows.size() != expect)
        barre_fatal("%s: shard %u/%u of a %zu-cell grid must carry "
                    "%zu rows, found %zu",
                    name.c_str(), sf.shard.index, sf.shard.count,
                    sf.total_cells, expect, sf.rows.size());
    return sf;
}

std::string
mergeShards(const std::vector<ShardFile> &shards)
{
    if (shards.empty())
        barre_fatal("mergeShards: no shard files given");

    const ShardFile &ref = shards.front();
    std::vector<bool> seen(ref.shard.count, false);
    for (const auto &sf : shards) {
        if (sf.shard.count != ref.shard.count)
            barre_fatal("shard %u/%u does not belong to a %u-way "
                        "sweep",
                        sf.shard.index, sf.shard.count,
                        ref.shard.count);
        if (sf.grid != ref.grid)
            barre_fatal("shard %u/%u ran a different grid:\n  %s\nvs\n"
                        "  %s",
                        sf.shard.index, sf.shard.count,
                        sf.grid.c_str(), ref.grid.c_str());
        if (sf.total_cells != ref.total_cells)
            barre_fatal("shard %u/%u disagrees on the grid size "
                        "(%zu vs %zu cells)",
                        sf.shard.index, sf.shard.count,
                        sf.total_cells, ref.total_cells);
        if (sf.header != ref.header)
            barre_fatal("shard %u/%u has a different CSV header — "
                        "mixed sweep versions?",
                        sf.shard.index, sf.shard.count);
        if (seen[sf.shard.index])
            barre_fatal("duplicate shard %u/%u", sf.shard.index,
                        sf.shard.count);
        seen[sf.shard.index] = true;
    }
    for (unsigned i = 0; i < ref.shard.count; ++i)
        if (!seen[i])
            barre_fatal("missing shard %u/%u — merge needs all %u "
                        "shard files",
                        i, ref.shard.count, ref.shard.count);

    std::vector<std::string> grid(ref.total_cells);
    std::vector<bool> filled(ref.total_cells, false);
    for (const auto &sf : shards) {
        std::vector<std::size_t> cells =
            shardCells(sf.total_cells, sf.shard);
        for (std::size_t k = 0; k < cells.size(); ++k) {
            if (filled[cells[k]])
                barre_fatal("cell %zu covered twice", cells[k]);
            grid[cells[k]] = sf.rows[k];
            filled[cells[k]] = true;
        }
    }
    for (std::size_t k = 0; k < ref.total_cells; ++k)
        if (!filled[k])
            barre_fatal("cell %zu missing after merge", k);

    std::string out = ref.header + '\n';
    for (const auto &row : grid) {
        out += row;
        out += '\n';
    }
    return out;
}

} // namespace barre
