/**
 * @file
 * FIFO queue on one growable ring buffer.
 *
 * Replaces std::deque for queues that fill and drain over and over (the
 * requests parked on a full MSHR file): a deque allocates and frees a
 * chunk node each time its front or back crosses a chunk boundary, so a
 * queue that keeps cycling keeps calling the allocator. The ring
 * doubles up to its peak occupancy and then never allocates again.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace barre
{

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &
    front()
    {
        barre_assert(size_ > 0, "front() of an empty RingQueue");
        return *slots_[head_];
    }

    void
    push_back(T &&v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & (slots_.size() - 1)].emplace(std::move(v));
        ++size_;
    }

    void
    pop_front()
    {
        barre_assert(size_ > 0, "pop_front() of an empty RingQueue");
        slots_[head_].reset();
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

  private:
    /** Double the capacity (a power of two), unwrapping the contents. */
    void
    grow()
    {
        std::vector<std::optional<T>> bigger(
            slots_.empty() ? 8 : slots_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i].emplace(
                std::move(*slots_[(head_ + i) & (slots_.size() - 1)]));
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<std::optional<T>> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace barre
