#include "calib.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "cells.hh"

namespace simbench
{

namespace
{

/*
 * Table and heap together stay within a core's L2, so the computation
 * tracks the core's speed (clock, sharing with its SMT sibling) rather
 * than contention for the host's shared cache and memory: scaled by a
 * table of a few MiB, the memory-bound partitioned cells swung more
 * than they did unscaled.
 */
constexpr std::size_t kTableWords = std::size_t{1} << 13; // 64 KiB
constexpr std::uint64_t kOutstanding = 4096;
constexpr std::uint32_t kEvents = 100000;

/** Keeps the result live so the loop is not optimised away. */
volatile std::uint64_t g_sink;

} // namespace

double
referenceSeconds()
{
    std::vector<std::uint64_t> table(kTableWords);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = i * 0x9e3779b97f4a7c15ull;
    using Event = std::pair<std::uint64_t, std::uint64_t>; // tick, state
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
    for (std::uint64_t i = 0; i < kOutstanding; ++i)
        q.push({i, i * 0xbf58476d1ce4e5b9ull});

    const double t0 = cpuSeconds();
    std::uint64_t acc = 0;
    for (std::uint32_t n = 0; n < kEvents; ++n) {
        auto [tick, state] = q.top();
        q.pop();
        state ^= state >> 31;
        state *= 0x94d049bb133111ebull;
        std::uint64_t &slot = table[state & (kTableWords - 1)];
        if ((slot ^ state) & 1)
            acc += slot;
        slot += state;
        q.push({tick + 1 + (state >> 54), state});
    }
    const double s = cpuSeconds() - t0;
    g_sink = acc;
    return s;
}

} // namespace simbench
