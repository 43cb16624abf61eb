/**
 * @file
 * Construct-once event payloads (sim/event_cell.hh, sim/cell_pool.hh):
 * a callback runs in place in its cell, so it may grow the fast lane,
 * a ladder bucket and the heap from inside itself and still read its
 * own captures; a callback that panics mid-run, and events that never
 * fire, have their captures destroyed exactly once (under the
 * asan-ubsan preset, where cells are plain operator new, LeakSanitizer
 * also proves no cell block leaks); and a block released on another
 * thread than the one that allocated it is recycled safely.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/cell_pool.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

using namespace barre;

namespace
{

constexpr int kBurst = 10000;

/** Captures far larger than InlineFn's inline buffer. */
struct BigCapture
{
    std::array<std::uint64_t, 12> words;

    static BigCapture
    pattern(std::uint64_t seed)
    {
        BigCapture c{};
        for (std::size_t i = 0; i < c.words.size(); ++i)
            c.words[i] = seed * 0x9e3779b97f4a7c15ull + i;
        return c;
    }

    bool
    intact(std::uint64_t seed) const
    {
        for (std::size_t i = 0; i < words.size(); ++i)
            if (words[i] != seed * 0x9e3779b97f4a7c15ull + i)
                return false;
        return true;
    }
};

/**
 * From inside one callback, schedule kBurst events at the current tick
 * (fast lane), kBurst inside the ladder window and kBurst beyond it
 * (heap), then check the callback's own captures. @p sched is called
 * as sched(delay, fn).
 */
template <typename Sched>
void
burstFromInside(const Sched &sched, int &fired, bool &intact)
{
    const BigCapture cap = BigCapture::pattern(77);
    auto token = std::make_shared<int>(5);
    sched(3, [cap, token, &sched, &fired, &intact]() {
        for (int i = 0; i < kBurst; ++i) {
            sched(0, [&fired] { ++fired; });
            sched(1 + i % 200, [&fired] { ++fired; });
            sched(1000 + i, [&fired] { ++fired; });
        }
        intact = cap.intact(77) && token && *token == 5;
    });
}

TEST(EventCell, CallbackGrowsLaneBucketAndHeapThenReadsItsCaptures)
{
    for (QueueMode mode : {QueueMode::ladder, QueueMode::heap_only}) {
        EventQueue eq(mode);
        int fired = 0;
        bool intact = false;
        auto sched = [&eq](Cycles d, auto &&fn) {
            eq.scheduleAfter(d, std::forward<decltype(fn)>(fn));
        };
        burstFromInside(sched, fired, intact);
        eq.run();
        EXPECT_TRUE(intact);
        EXPECT_EQ(fired, 3 * kBurst);
        EXPECT_TRUE(eq.empty());
    }
}

TEST(EventCell, TaggedDomainCallbackGrowsHeapThenReadsItsCaptures)
{
    EventQueue eq;
    eq.enableTags({0}, 1);
    TaggedEngine &eng = *eq.taggedEngine();
    int fired = 0;
    bool intact = false;
    auto sched = [&eq](Cycles d, auto &&fn) {
        eq.scheduleAfter(d, std::forward<decltype(fn)>(fn));
    };
    {
        EventQueue::TagScope scope(eq, kHostTag);
        burstFromInside(sched, fired, intact);
    }
    eng.runEpoch(0, max_tick);
    EXPECT_TRUE(intact);
    EXPECT_EQ(fired, 3 * kBurst);
    EXPECT_TRUE(eng.empty());
}

TEST(EventCell, PanickingCallbackLeaksNoCell)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        const BigCapture cap = BigCapture::pattern(3);
        for (Tick t : {1, 2, 5, 300, 900})
            eq.schedule(t, [cap, token] { (void)cap; });
        eq.schedule(4, [cap, token] {
            (void)cap;
            barre_panic("callback panics mid-run");
        });
        token.reset();
        EXPECT_THROW(eq.run(), std::logic_error);
        EXPECT_EQ(eq.now(), 4u);
        EXPECT_FALSE(watch.expired()); // unfired events still held
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventCell, TaggedPanicAndStagedSendsLeakNoCell)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    struct Wire : ArbHook
    {
        Tick
        arbitrate(Tick send_tick, std::uint64_t) override
        {
            return send_tick + 40;
        }
    } wire;
    {
        EventQueue eq;
        eq.enableTags({0, 1}, 2);
        TaggedEngine &eng = *eq.taggedEngine();
        const BigCapture cap = BigCapture::pattern(9);
        {
            EventQueue::TagScope scope(eq, kHostTag);
            eq.schedule(10, [cap, token] {
                (void)cap;
                barre_panic("tagged callback panics mid-run");
            });
            eq.schedule(20, [cap, token] { (void)cap; });
        }
        // Staged cross-domain deliveries and arbitration ops that are
        // never drained.
        eng.setRunning(true);
        {
            EventQueue::TagScope scope(eq, kHostTag);
            eq.scheduleCross(1, 60, [cap, token] { (void)cap; });
            eq.stageArb(1, wire, 64, [cap, token] { (void)cap; });
        }
        eng.setRunning(false);
        token.reset();
        EXPECT_THROW(eng.runEpoch(0, max_tick), std::logic_error);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(CellPool, BlocksReleasedOnAnotherThreadAreRecycled)
{
    // A producer allocates, a consumer releases: the consumer's
    // magazines overflow into the depot and the producer refills from
    // it. Run under TSan this also proves the hand-off is race-free.
    constexpr int kRounds = 20000;
    std::mutex mu;
    std::deque<void *> q;
    bool done = false;
    std::thread consumer([&] {
        for (;;) {
            void *p = nullptr;
            {
                std::lock_guard<std::mutex> lk(mu);
                if (!q.empty()) {
                    p = q.front();
                    q.pop_front();
                } else if (done) {
                    return;
                }
            }
            if (p) {
                EXPECT_EQ(*static_cast<std::uint64_t *>(p) % 7, 3u);
                cell_pool::release(p, 96);
            } else {
                std::this_thread::yield();
            }
        }
    });
    for (int i = 0; i < kRounds; ++i) {
        void *p = cell_pool::allocate(96);
        *static_cast<std::uint64_t *>(p) = std::uint64_t(i) * 7 + 3;
        std::lock_guard<std::mutex> lk(mu);
        q.push_back(p);
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    consumer.join();
}

} // namespace
