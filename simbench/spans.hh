/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one timed call (or one batch of calls) into a layer of the
 * simulator, recorded from the benchmark's side of the API: name,
 * start/end on the steady clock, the span that caused it, the cell it
 * belongs to, and how many layer operations it covers. Spans stay in
 * memory until the run ends, then go out as JSON lines.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace simbench
{

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1; ///< index of the causing span, -1 = root
        std::int32_t cell = -1;   ///< cell the span belongs to, -1 = none
        std::uint64_t ops = 1;    ///< layer calls covered by the span
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Open a span; returns its id for close() and for child spans. */
    std::int32_t
    open(std::string name, std::int32_t parent = -1, std::int32_t cell = -1)
    {
        Span s;
        s.name = std::move(name);
        s.parent = parent;
        s.cell = cell;
        s.start_ns = nowNs();
        spans_.push_back(std::move(s));
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(std::int32_t id, std::uint64_t ops = 1)
    {
        Span &s = spans_[id];
        s.end_ns = nowNs();
        s.ops = ops;
        return (s.end_ns - s.start_ns) * 1e-9;
    }

    /** One JSON object per line, in open order. */
    void
    write(std::ostream &os) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"id\":" << i << ",\"name\":\"" << s.name
               << "\",\"start_ns\":" << s.start_ns
               << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
               << ",\"cell\":" << s.cell << ",\"ops\":" << s.ops << "}\n";
        }
    }

  private:
    std::vector<Span> spans_;
};

} // namespace simbench
