/**
 * @file
 * The event schedule path allocates nothing in steady state: after a
 * warm-up, schedule+fire cycles whose captures are nested
 * continuations larger than InlineFn's inline buffer make zero calls
 * to the global operator new, on the legacy EventQueue and on a
 * single-domain TaggedEngine. This binary replaces operator new to
 * count the calls, so it holds no other tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "operator_new_counter.hh"
#include "sim/cell_pool.hh"
#include "sim/event_queue.hh"

using alloc_count::newsDuring;
using namespace barre;

namespace
{

/**
 * One chain of nested continuations, shaped like a memory access: the
 * first event captures a `done` continuation plus request state (well
 * over 48 bytes), then wraps `done` into a second continuation that is
 * itself too big for the inline buffer, parks it in a later event (a
 * ladder bucket or, every few rounds, the far-future heap), and
 * finally calls `done`, which starts the next round. Delays depend on
 * the round only, so the load on each bucket, the lane and the heap is
 * periodic and their vectors stop growing during the warm-up.
 */
struct Chain
{
    EventQueue *eq;
    std::uint64_t id;
    std::uint64_t rounds = 0;
    std::uint64_t sum = 0;

    void
    start()
    {
        round(EventQueue::Callback([this] {
            ++rounds;
            start();
        }));
    }

    void
    round(EventQueue::Callback &&done)
    {
        const std::uint64_t a = id, b = rounds, c = id * 3 + rounds;
        eq->scheduleAfter(
            rounds % 3, [this, a, b, c, done = std::move(done)]() mutable {
                EventQueue::Callback cont = [this, a, b, c,
                                             done = std::move(done)] {
                    sum += a + b + c;
                    done();
                };
                const Cycles delay = b % 7 == 0 ? 400 : 1 + b % 50;
                eq->scheduleAfter(delay, [cont = std::move(cont)] {
                    cont();
                });
            });
    }
};

std::uint64_t
minRounds(const std::vector<Chain> &chains)
{
    std::uint64_t r = ~std::uint64_t{0};
    for (const Chain &c : chains)
        r = std::min(r, c.rounds);
    return r;
}

constexpr std::size_t kChains = 32;
constexpr std::uint64_t kWarmRounds = 3000;
constexpr std::uint64_t kMeasuredRounds = 3000;

TEST(EventAlloc, LegacyQueueSteadyStateMakesNoOperatorNew)
{
    if (!cell_pool::kPooled)
        GTEST_SKIP() << "cell free lists are compiled out under "
                        "AddressSanitizer; every cell is operator new";
    EventQueue eq;
    std::vector<Chain> chains;
    for (std::size_t i = 0; i < kChains; ++i)
        chains.push_back(Chain{&eq, i});
    for (Chain &c : chains)
        c.start();
    auto run_until = [&](std::uint64_t r) {
        while (minRounds(chains) < r)
            eq.run(64);
    };
    run_until(kWarmRounds);
    const std::uint64_t fired0 = eq.fired();
    EXPECT_EQ(newsDuring([&] { run_until(kWarmRounds + kMeasuredRounds); }),
              0u);
    EXPECT_GE(eq.fired() - fired0, kChains * kMeasuredRounds * 2);
}

TEST(EventAlloc, TaggedDomainSteadyStateMakesNoOperatorNew)
{
    if (!cell_pool::kPooled)
        GTEST_SKIP() << "cell free lists are compiled out under "
                        "AddressSanitizer; every cell is operator new";
    EventQueue eq;
    eq.enableTags({0}, 1);
    TaggedEngine &eng = *eq.taggedEngine();
    std::vector<Chain> chains;
    for (std::size_t i = 0; i < kChains; ++i)
        chains.push_back(Chain{&eq, i});
    {
        EventQueue::TagScope scope(eq, kHostTag);
        for (Chain &c : chains)
            c.start();
    }
    auto run_until = [&](std::uint64_t r) {
        while (minRounds(chains) < r)
            eng.runEpoch(0, eng.nextEventTick() + 1);
    };
    run_until(kWarmRounds);
    const std::uint64_t fired0 = eng.fired();
    EXPECT_EQ(newsDuring([&] { run_until(kWarmRounds + kMeasuredRounds); }),
              0u);
    EXPECT_GE(eng.fired() - fired0, kChains * kMeasuredRounds * 2);
}

} // namespace
