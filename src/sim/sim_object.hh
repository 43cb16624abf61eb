/**
 * @file
 * Base class for simulated hardware components.
 *
 * A SimObject has a hierarchical name ("gpu0.l2tlb"), a reference to the
 * system's EventQueue, and convenience scheduling helpers. Ownership of
 * SimObjects lies with the System assembly in harness/.
 */

#pragma once

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace barre
{

class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : eq_(eq), name_(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    Tick curTick() const { return eq_.now(); }
    EventQueue &eventQueue() { return eq_; }

  protected:
    /** Schedule a member-ish closure @p delay cycles from now. */
    template <EventCallable F>
    void
    after(Cycles delay, F &&fn)
    {
        eq_.scheduleAfter(delay, std::forward<F>(fn));
    }

  private:
    EventQueue &eq_;
    std::string name_;
};

} // namespace barre

