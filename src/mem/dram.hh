/**
 * @file
 * Coarse per-chiplet DRAM timing model.
 *
 * Fixed access latency plus a bandwidth regulator: back-to-back accesses
 * are spaced by the serialization time of a cache line at the configured
 * bandwidth (Table II: 1 TB/s, 100 ns). One instance per chiplet.
 */

#pragma once

#include <cstdint>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace barre
{

struct DramParams
{
    /** Flat access latency in cycles (100 ns at 1 GHz core clock). */
    Cycles latency = 100;
    /** Bytes transferable per core cycle (1 TB/s at 1 GHz = 1024 B/cy). */
    double bytes_per_cycle = 1024.0;
    /** Access granularity (one cache line). */
    std::uint32_t line_bytes = 64;

    bool operator==(const DramParams &) const = default;
};

// domain-owner:chiplet — each DRAM stack belongs to its chiplet; peer
// accesses arrive as interconnect messages (Chiplet::serveRemoteData).
class Dram : public SimObject
{
  public:
    Dram(EventQueue &eq, std::string name, const DramParams &p)
        : SimObject(eq, std::move(name)), params_(p)
    {}

    /**
     * Issue one line-sized access; @p done fires at completion time.
     * @return the completion tick.
     */
    template <EventCallable F>
    Tick
    access(F &&done)
    {
        ++accesses_;
        // Serialization: the channel frees up line_bytes/bw after the
        // previous access started draining.
        Tick start = std::max(curTick(), channel_free_);
        channel_free_ = start + serializationCycles(params_.line_bytes,
                                                   params_.bytes_per_cycle);
        Tick finish = start + params_.latency;
        eventQueue().schedule(finish, std::forward<F>(done));
        return finish;
    }

    std::uint64_t accesses() const { return accesses_.value(); }

  private:
    DramParams params_;
    Tick channel_free_ = 0;
    Counter accesses_;
};

} // namespace barre

