/**
 * @file
 * Tests for the cluster-sweep sharding layer: strict CLI parsing,
 * shard partitioning, the shard CSV manifest, and mergeShards().
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/sweep_io.hh"

using namespace barre;

// fatal() throws std::runtime_error so tests can assert on the
// rejection paths.

TEST(ParseUnsignedArg, AcceptsPlainIntegers)
{
    EXPECT_EQ(parseUnsignedArg("0", "t"), 0u);
    EXPECT_EQ(parseUnsignedArg("8", "t"), 8u);
    EXPECT_EQ(parseUnsignedArg("4294967295", "t"), 4294967295u);
}

TEST(ParseUnsignedArg, RejectsGarbageInsteadOfReturningZero)
{
    // The atoi bug: "--jobs x" used to become 0 == "use every core".
    EXPECT_THROW(parseUnsignedArg("x", "t"), std::runtime_error);
    EXPECT_THROW(parseUnsignedArg("4x", "t"), std::runtime_error);
    EXPECT_THROW(parseUnsignedArg("", "t"), std::runtime_error);
    EXPECT_THROW(parseUnsignedArg("-3", "t"), std::runtime_error);
    EXPECT_THROW(parseUnsignedArg("4294967296", "t"),
                 std::runtime_error);
    EXPECT_THROW(parseUnsignedArg("99999999999999999999", "t"),
                 std::runtime_error);
}

TEST(ParseChipletsArg, AcceptsTheModelledRange)
{
    EXPECT_EQ(parseChipletsArg("1"), 1u);
    EXPECT_EQ(parseChipletsArg("4"), 4u);
    EXPECT_EQ(parseChipletsArg("16"), 16u);
}

TEST(ParseChipletsArg, RejectsCountsThePecAndPteCannotEncode)
{
    EXPECT_THROW(parseChipletsArg("0"), std::runtime_error);
    EXPECT_THROW(parseChipletsArg("x"), std::runtime_error);
    for (const char *n : {"17", "32"}) {
        try {
            parseChipletsArg(n);
            FAIL() << "--chiplets " << n << " accepted";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("PecEntry::max_gpus"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("11-bit"), std::string::npos) << msg;
        }
    }
}

TEST(ParseScaleArg, AcceptsPositiveReals)
{
    EXPECT_DOUBLE_EQ(parseScaleArg("0.25", "t"), 0.25);
    EXPECT_DOUBLE_EQ(parseScaleArg("2", "t"), 2.0);
}

TEST(ParseScaleArg, RejectsGarbageZeroAndNegative)
{
    // The atof bug: "--scale x" used to become 0.0 == degenerate run.
    EXPECT_THROW(parseScaleArg("x", "t"), std::runtime_error);
    EXPECT_THROW(parseScaleArg("0.5y", "t"), std::runtime_error);
    EXPECT_THROW(parseScaleArg("0", "t"), std::runtime_error);
    EXPECT_THROW(parseScaleArg("-1", "t"), std::runtime_error);
    EXPECT_THROW(parseScaleArg("", "t"), std::runtime_error);
    EXPECT_THROW(parseScaleArg("inf", "t"), std::runtime_error);
}

TEST(ParseShardArg, AcceptsValidSpecs)
{
    EXPECT_EQ(parseShardArg("0/2"), (ShardSpec{0, 2}));
    EXPECT_EQ(parseShardArg("1/2"), (ShardSpec{1, 2}));
    EXPECT_EQ(parseShardArg("0/1"), (ShardSpec{0, 1}));
    EXPECT_EQ(parseShardArg("15/16"), (ShardSpec{15, 16}));
}

TEST(ParseShardArg, RejectsMalformedSpecs)
{
    EXPECT_THROW(parseShardArg("2/2"), std::runtime_error); // i >= N
    EXPECT_THROW(parseShardArg("x/2"), std::runtime_error);
    EXPECT_THROW(parseShardArg("1/0"), std::runtime_error);
    EXPECT_THROW(parseShardArg("1-2"), std::runtime_error);
    EXPECT_THROW(parseShardArg("1/"), std::runtime_error);
    EXPECT_THROW(parseShardArg("/2"), std::runtime_error);
    EXPECT_THROW(parseShardArg(""), std::runtime_error);
}

TEST(ShardCells, UnionOfAllShardsIsTheFullGridWithNoOverlap)
{
    for (std::size_t total : {0u, 1u, 5u, 12u, 37u}) {
        for (unsigned count : {1u, 2u, 3u, 8u, 40u}) {
            std::set<std::size_t> seen;
            std::size_t n = 0;
            for (unsigned i = 0; i < count; ++i) {
                auto cells = shardCells(total, {i, count});
                for (std::size_t c : cells) {
                    EXPECT_TRUE(seen.insert(c).second)
                        << "cell " << c << " in two shards";
                    EXPECT_LT(c, total);
                }
                n += cells.size();
            }
            EXPECT_EQ(n, total) << total << " cells / " << count;
        }
    }
}

TEST(ShardCells, RoundRobinKeepsShardsBalanced)
{
    auto s0 = shardCells(7, {0, 2});
    auto s1 = shardCells(7, {1, 2});
    EXPECT_EQ(s0, (std::vector<std::size_t>{0, 2, 4, 6}));
    EXPECT_EQ(s1, (std::vector<std::size_t>{1, 3, 5}));
}

namespace
{

/** A tiny 2-config x 2-app sharded sweep with awkward labels. */
std::vector<ShardFile>
makeShards()
{
    // Cell rows in canonical order; the "a+b,chunked" config label
    // exercises RFC-4180 quoting end to end.
    std::vector<std::string> rows = {
        csvQuote("a+b,chunked") + ",atax,1,11",
        csvQuote("a+b,chunked") + ",gups,2,22",
        "fbarre,atax,3,33",
        "fbarre,gups,4,44",
    };
    ShardFile s0, s1;
    s0.shard = {0, 2};
    s1.shard = {1, 2};
    for (ShardFile *s : {&s0, &s1}) {
        s->grid = "modes=a+b,chunked|fbarre;apps=atax,gups;scale=1";
        s->total_cells = rows.size();
        s->header = "config,app,runtime,accesses";
    }
    s0.rows = {rows[0], rows[2]};
    s1.rows = {rows[1], rows[3]};
    return {s0, s1};
}

} // namespace

TEST(ShardCsv, WriteReadRoundTrip)
{
    for (const ShardFile &sf : makeShards()) {
        std::stringstream ss;
        writeShardCsv(ss, sf);
        ShardFile back = readShardCsv(ss, "test");
        EXPECT_EQ(back, sf);
    }
}

TEST(ShardCsv, ReadRejectsPlainCsvWithoutManifest)
{
    std::stringstream ss;
    ss << "config,app,runtime\nbaseline,atax,1\n";
    EXPECT_THROW(readShardCsv(ss, "plain"), std::runtime_error);
}

TEST(ShardCsv, ReadRejectsRowCountMismatch)
{
    ShardFile sf = makeShards()[0];
    sf.rows.pop_back(); // 1 row where shard 0/2 of 4 cells needs 2
    std::stringstream ss;
    writeShardCsv(ss, sf);
    EXPECT_THROW(readShardCsv(ss, "short"), std::runtime_error);
}

TEST(MergeShards, ReassemblesCanonicalOrderIncludingQuotedFields)
{
    std::string merged = mergeShards(makeShards());
    EXPECT_EQ(merged, "config,app,runtime,accesses\n"
                      "\"a+b,chunked\",atax,1,11\n"
                      "\"a+b,chunked\",gups,2,22\n"
                      "fbarre,atax,3,33\n"
                      "fbarre,gups,4,44\n");
    // And the quoted label survives a parse without shifting columns.
    auto fields = splitCsvRecord("\"a+b,chunked\",atax,1,11");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a+b,chunked");
    EXPECT_EQ(fields[1], "atax");
}

TEST(MergeShards, ShardOrderOnTheCommandLineDoesNotMatter)
{
    auto shards = makeShards();
    std::swap(shards[0], shards[1]);
    EXPECT_EQ(mergeShards(shards), mergeShards(makeShards()));
}

TEST(MergeShards, DetectsMissingShard)
{
    auto shards = makeShards();
    shards.pop_back();
    EXPECT_THROW(mergeShards(shards), std::runtime_error);
}

TEST(MergeShards, DetectsDuplicateShard)
{
    auto shards = makeShards();
    shards.push_back(shards[0]);
    EXPECT_THROW(mergeShards(shards), std::runtime_error);
}

TEST(MergeShards, DetectsGridMismatch)
{
    auto shards = makeShards();
    shards[1].grid = "modes=baseline;apps=atax,gups;scale=1";
    EXPECT_THROW(mergeShards(shards), std::runtime_error);
}

TEST(MergeShards, DetectsHeaderMismatch)
{
    auto shards = makeShards();
    shards[1].header += ",extra";
    EXPECT_THROW(mergeShards(shards), std::runtime_error);
}

TEST(MergeShards, DetectsForeignShardCount)
{
    auto shards = makeShards();
    shards[1].shard = {1, 3};
    shards[1].rows = {shards[1].rows[0]};
    EXPECT_THROW(mergeShards(shards), std::runtime_error);
}

TEST(MergeShards, EmptyInputIsFatal)
{
    EXPECT_THROW(mergeShards({}), std::runtime_error);
}
