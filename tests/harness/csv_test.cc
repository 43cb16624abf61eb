/**
 * @file
 * Tests for the CSV metrics exporter.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/csv.hh"

using namespace barre;

TEST(Csv, HeaderAndRowHaveSameArity)
{
    RunMetrics m;
    std::string header = csvHeader();
    std::string row = csvRow(m);
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
}

TEST(Csv, ValuesLandInTheRightColumns)
{
    RunMetrics m;
    m.config = "F-Barre";
    m.app = "atax";
    m.runtime = 12345;
    m.ats_packets = 77;
    std::string row = csvRow(m);
    EXPECT_EQ(row.rfind("F-Barre,atax,12345,", 0), 0u);
    EXPECT_NE(row.find(",77,"), std::string::npos);
}

TEST(Csv, WriteCsvEmitsHeaderPlusRows)
{
    std::ostringstream os;
    RunMetrics a, b;
    // Assign std::strings, not literals: GCC 12 at -O3 misreports the
    // literal assignment's memcpy as overlapping (-Wrestrict).
    a.app = std::string("x");
    b.app = std::string("y");
    writeCsv(os, {a, b});
    std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
    EXPECT_EQ(text.rfind("config,app,", 0), 0u);
}

TEST(Csv, QuoteLeavesPlainFieldsAlone)
{
    EXPECT_EQ(csvQuote("fbarre"), "fbarre");
    EXPECT_EQ(csvQuote("atax+gups"), "atax+gups");
    EXPECT_EQ(csvQuote(""), "");
}

TEST(Csv, QuoteEscapesCommasQuotesAndNewlines)
{
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, SplitCsvRecordUndoesQuoting)
{
    auto fields = splitCsvRecord("\"a,b\",plain,\"q\"\"q\",7");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a,b");
    EXPECT_EQ(fields[1], "plain");
    EXPECT_EQ(fields[2], "q\"q");
    EXPECT_EQ(fields[3], "7");
}

TEST(Csv, SplitCsvRecordHandlesEmptyFields)
{
    auto fields = splitCsvRecord("a,,c,");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[3], "");
}

TEST(Csv, SplitCsvRecordRejectsMalformedInput)
{
    EXPECT_THROW(splitCsvRecord("\"unterminated"), std::runtime_error);
    EXPECT_THROW(splitCsvRecord("\"x\"y,z"), std::runtime_error);
    EXPECT_THROW(splitCsvRecord("a\"b,c"), std::runtime_error);
}

TEST(Csv, RowWithCommaInLabelKeepsColumnsAligned)
{
    // Regression: unquoted emission shifted every downstream column.
    RunMetrics m;
    m.config = "a+b,chunked";
    m.app = "atax";
    m.runtime = 99;
    std::string row = csvRow(m);
    EXPECT_EQ(row.rfind("\"a+b,chunked\",atax,99,", 0), 0u);

    auto header = splitCsvRecord(csvHeader());
    auto fields = splitCsvRecord(row);
    ASSERT_EQ(fields.size(), header.size());
    EXPECT_EQ(fields[0], "a+b,chunked");
    EXPECT_EQ(fields[1], "atax");
    EXPECT_EQ(fields[2], "99");
}
