/**
 * @file
 * EventCell: one scheduled event's callable, constructed once in a
 * pooled block (sim/cell_pool.hh) and never moved again.
 *
 * The event engines keep only small POD entries — ordering key, tag and
 * an EventCell pointer — in their buckets, lanes and heaps, so growing
 * or sifting those containers moves a few words per event instead of a
 * closure. The callable is built in the cell straight from the
 * scheduling call's forwarding reference, invoked in place when the
 * event fires, and destroyed in place right after; the cell is then
 * back in the pool. A callback may schedule any number of events while
 * it runs: its own captures live in the cell, not in the container that
 * is growing.
 */

#pragma once

#include <type_traits>
#include <utility>

#include "sim/cell_pool.hh"

namespace barre
{

/** What the engines accept as an event: anything callable as void(). */
template <typename F>
concept EventCallable = std::is_invocable_r_v<void, std::decay_t<F> &>;

class EventCell
{
  public:
    EventCell(const EventCell &) = delete;
    EventCell &operator=(const EventCell &) = delete;

    /**
     * Build a cell holding a decay-copy of @p fn (moved when an rvalue).
     * Ownership passes to the caller until fire() or discard().
     */
    template <EventCallable F>
    static EventCell *
    make(F &&fn)
    {
        return cell_pool::create<Holder<std::decay_t<F>>>(
            std::forward<F>(fn));
    }

    /**
     * Invoke the callable in place, then destroy it and free the cell —
     * also when the callable throws. The cell is gone afterwards.
     */
    void fire() { run_(this, true); }

    /** Destroy the callable without invoking it and free the cell. */
    void discard() noexcept { run_(this, false); }

  private:
    using Run = void (*)(EventCell *self, bool invoke);

    explicit EventCell(Run run) noexcept : run_(run) {}

    template <typename Fn>
    class Holder;

    Run run_;
};

template <typename Fn>
class EventCell::Holder final : public EventCell
{
  public:
    template <typename F>
    explicit Holder(F &&fn) : EventCell(&run), fn_(std::forward<F>(fn))
    {}

  private:
    /** Destroys and frees the cell when run() leaves, by any exit. */
    struct Reclaim
    {
        Holder *cell;

        ~Reclaim() { cell_pool::destroy(cell); }
    };

    static void
    run(EventCell *self, bool invoke)
    {
        Reclaim guard{static_cast<Holder *>(self)};
        if (invoke)
            guard.cell->fn_();
    }

    Fn fn_;
};

} // namespace barre
