/**
 * @file
 * The L2 TLB miss path allocates nothing in steady state: after a
 * warm-up, rounds of MSHR allocate/merge/complete cycles, with the
 * requests that find the file full parked on a RingQueue and released
 * as slots free (the shape of Chiplet::translateAtL2 and
 * SharedTlbService), make zero calls to the global operator new. The
 * MSHR callbacks capture a continuation plus request state, more than
 * InlineFn's inline buffer, as the chiplet's do. This binary replaces
 * operator new to count the calls, so it holds no other tests.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "../sim/operator_new_counter.hh"
#include "sim/cell_pool.hh"
#include "sim/event_queue.hh"
#include "sim/ring_queue.hh"
#include "tlb/mshr.hh"
#include "tlb/tlb.hh"

using alloc_count::newsDuring;
using namespace barre;

namespace
{

using TlbMshr = Mshr<TlbEntry>;

/** A request parked on a full MSHR file (Chiplet::Parked's shape). */
struct Parked
{
    CuId cu;
    ProcessId pid;
    Addr vaddr;
    Vpn vpn;
    Tick t0;
    EventQueue::Callback done;
};

struct MissPath
{
    TlbMshr mshr{16};
    RingQueue<Parked> parked;
    RingQueue<TlbMshr::Key> inflight; ///< primaries, oldest first
    std::uint64_t parks = 0;
    std::uint64_t served = 0;

    void
    request(Parked &&p)
    {
        const TlbMshr::Key key = TlbMshr::keyOf(p.pid, p.vpn);
        if (!mshr.inFlight(key) && mshr.full()) {
            ++parks;
            parked.push_back(std::move(p));
            return;
        }
        const auto outcome = mshr.allocate(
            key, [this, cu = p.cu, vaddr = p.vaddr, t0 = p.t0,
                  done = std::move(p.done)](const TlbEntry &te) mutable {
                served += cu + vaddr + t0 + te.pfn;
                done();
            });
        if (outcome == TlbMshr::Outcome::primary)
            inflight.push_back(TlbMshr::Key{key});
    }

    /** Complete the oldest miss, then release parked requests. */
    void
    completeOldest()
    {
        const TlbMshr::Key key = inflight.front();
        inflight.pop_front();
        TlbEntry te;
        te.pfn = key & 0xfff;
        te.valid = true;
        mshr.complete(key, te);
        while (!parked.empty() && !mshr.full()) {
            Parked p = std::move(parked.front());
            parked.pop_front();
            request(std::move(p));
        }
    }

    /**
     * One burst: 48 requests over 24 VPNs (so some merge) against 16
     * MSHRs (so many park), drained to empty.
     */
    void
    round(std::uint64_t r)
    {
        for (std::uint32_t i = 0; i < 48; ++i) {
            const Vpn vpn = 0x1000 + (r * 7 + i * 5) % 24;
            request(Parked{i % 64, 1, vpn << 12, vpn, r,
                           [this] { ++served; }});
        }
        while (!inflight.empty())
            completeOldest();
    }
};

TEST(MissPathAlloc, MshrAndParkingRoundsMakeNoOperatorNew)
{
    if (!cell_pool::kPooled)
        GTEST_SKIP() << "cell free lists are compiled out under "
                        "AddressSanitizer; every cell is operator new";
    MissPath path;
    for (std::uint64_t r = 0; r < 500; ++r)
        path.round(r);
    const std::uint64_t merged0 = path.mshr.secondaryMisses();
    const std::uint64_t parks0 = path.parks;
    EXPECT_EQ(newsDuring([&] {
                  for (std::uint64_t r = 500; r < 2500; ++r)
                      path.round(r);
              }),
              0u);
    // The measured rounds did merge and park.
    EXPECT_GT(path.mshr.secondaryMisses() - merged0, 2000u);
    EXPECT_GT(path.parks - parks0, 2000u);
    EXPECT_TRUE(path.parked.empty());
    EXPECT_EQ(path.mshr.occupancy(), 0u);
}

} // namespace
