#include "harness/csv.hh"

#include <ostream>
#include <sstream>
#include <type_traits>
#include <variant>

#include "sim/logging.hh"

namespace barre
{

namespace
{

using M = RunMetrics;

/** One CSV column: its header name and the RunMetrics member it prints. */
struct Column
{
    const char *name;
    std::variant<std::string M::*, std::uint64_t M::*, double M::*> field;
};

/** The CSV columns in order; csvHeader() and csvRow() both walk it. */
const Column kColumns[] = {
    {"config", &M::config},
    {"app", &M::app},
    {"runtime", &M::runtime},
    {"accesses", &M::accesses},
    {"instructions", &M::instructions},
    {"l2_tlb_hits", &M::l2_tlb_hits},
    {"l2_tlb_misses", &M::l2_tlb_misses},
    {"l2_mpki", &M::l2_mpki},
    {"mshr_retries", &M::mshr_retries},
    {"ats_packets", &M::ats_packets},
    {"walks", &M::walks},
    {"iommu_coalesced", &M::iommu_coalesced},
    {"iommu_tlb_hits", &M::iommu_tlb_hits},
    {"avg_ats_time", &M::avg_ats_time},
    {"local_calc_hits", &M::local_calc_hits},
    {"remote_probes", &M::remote_probes},
    {"remote_hits", &M::remote_hits},
    {"fbarre_fallbacks", &M::fbarre_fallbacks},
    {"filter_updates", &M::filter_updates},
    {"local_data", &M::local_data},
    {"remote_data", &M::remote_data},
    {"noc_bytes", &M::noc_bytes},
    {"pcie_up_bytes", &M::pcie_up_bytes},
    {"pcie_down_bytes", &M::pcie_down_bytes},
    {"gmmu_local_walks", &M::gmmu_local_walks},
    {"gmmu_remote_walks", &M::gmmu_remote_walks},
    {"gmmu_coalesced", &M::gmmu_coalesced},
    {"coalesced_pages", &M::coalesced_pages},
    {"mapped_pages", &M::mapped_pages},
    {"migrations", &M::migrations},
};

} // namespace

std::string
csvHeader()
{
    std::string out;
    for (const Column &c : kColumns) {
        if (&c != kColumns)
            out += ',';
        out += c.name;
    }
    return out;
}

std::string
tenantCsvHeader()
{
    return "app,pid,arrival,finish,retired,runtime,accesses,"
           "lat_p50,lat_p95,lat_p99,peak_l2_tlb";
}

std::string
tenantCsvRow(const TenantMetrics &t)
{
    std::ostringstream os;
    os << csvQuote(t.app) << ',' << t.pid << ',' << t.arrival << ','
       << t.finish << ',' << t.retired << ',' << t.runtime() << ','
       << t.accesses << ',' << t.lat_p50 << ',' << t.lat_p95 << ','
       << t.lat_p99 << ',' << t.peak_l2_tlb;
    return os.str();
}

std::string
csvQuote(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out;
    out.reserve(field.size() + 2);
    out.push_back('"');
    for (char c : field) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::vector<std::string>
splitCsvRecord(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    std::size_t i = 0;
    const std::size_t n = line.size();
    for (;;) {
        cur.clear();
        if (i < n && line[i] == '"') {
            ++i; // quoted field
            for (;;) {
                if (i >= n)
                    barre_fatal("unterminated quote in CSV record "
                                "'%s'",
                                line.c_str());
                if (line[i] == '"') {
                    if (i + 1 < n && line[i + 1] == '"') {
                        cur.push_back('"');
                        i += 2;
                        continue;
                    }
                    ++i; // closing quote
                    break;
                }
                cur.push_back(line[i++]);
            }
            if (i < n && line[i] != ',')
                barre_fatal("garbage after closing quote in CSV "
                            "record '%s'",
                            line.c_str());
        } else {
            while (i < n && line[i] != ',') {
                if (line[i] == '"')
                    barre_fatal("stray quote in unquoted CSV field "
                                "in record '%s'",
                                line.c_str());
                cur.push_back(line[i++]);
            }
        }
        fields.push_back(cur);
        if (i >= n)
            break;
        ++i; // consume the comma
    }
    return fields;
}

std::string
csvRow(const RunMetrics &m)
{
    std::ostringstream os;
    for (const Column &c : kColumns) {
        if (&c != kColumns)
            os << ',';
        std::visit(
            [&](auto field) {
                if constexpr (std::is_same_v<decltype(field),
                                             std::string M::*>)
                    os << csvQuote(m.*field);
                else
                    os << m.*field;
            },
            c.field);
    }
    return os.str();
}

void
writeCsv(std::ostream &os, const std::vector<RunMetrics> &rows)
{
    os << csvHeader() << '\n';
    for (const auto &m : rows)
        os << csvRow(m) << '\n';
}

} // namespace barre
