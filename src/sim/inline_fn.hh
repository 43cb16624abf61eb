/**
 * @file
 * A move-only type-erased callable with small-buffer optimisation.
 *
 * InlineFn<R(Args...)> replaces std::function on the event hot path:
 * the common simulator capture — two or three pointers plus a couple of
 * scalars — is stored inline in a 48-byte buffer. Larger callables
 * (nested continuation lambdas that capture another InlineFn) live out
 * of line in a block from the same per-thread free lists as event
 * payloads (sim/cell_pool.hh), so they cost no operator new either once
 * the pool is warm.
 *
 * Moving an InlineFn relocates its target. Out-of-line and trivially
 * copyable targets move with a plain memcpy of the buffer; only inline
 * targets with a real move constructor take an indirect call.
 *
 * Differences from std::function, on purpose:
 *   - move-only: events are consumed exactly once, and banning copies
 *     lets callers capture move-only state (other InlineFns, vectors)
 *     without the hidden copy std::function would make;
 *   - operator() keeps std::function's shallow-const semantics (the
 *     erased callable may mutate its captures) without forcing every
 *     lambda to be declared mutable.
 */

#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/cell_pool.hh"
#include "sim/logging.hh"

namespace barre
{

/** Default inline capacity: room for ~6 pointers of captured state. */
inline constexpr std::size_t inline_fn_capacity = 48;

template <typename Sig, std::size_t Cap = inline_fn_capacity>
class InlineFn;

template <typename R, typename... Args, std::size_t Cap>
class InlineFn<R(Args...), Cap>
{
  public:
    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFn(F &&fn)
    {
        using Fn = std::decay_t<F>;
        void *slot = static_cast<void *>(buf_);
        if constexpr (fitsInline<Fn>()) {
            ::new (slot) Fn(std::forward<F>(fn)); // lint-allow:naked-new
            vt_ = &inline_vtable<Fn>;
        } else {
            // Erased ownership: the pooled block parked in buf_ is
            // reclaimed by HeapModel::destroy below.
            ::new (slot) Fn *( // lint-allow:naked-new
                cell_pool::create<Fn>(std::forward<F>(fn)));
            vt_ = &heap_vtable<Fn>;
        }
    }

    InlineFn(InlineFn &&other) noexcept { take(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return vt_ != nullptr; }

    /**
     * Invoke the stored callable (shallow const: captures may mutate).
     * @pre *this holds a callable.
     */
    R
    operator()(Args... args) const
    {
        barre_assert(vt_ != nullptr, "invoking an empty InlineFn");
        return vt_->invoke(buf_, std::forward<Args>(args)...);
    }

    void
    reset() noexcept
    {
        if (vt_) {
            if (vt_->destroy)
                vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    /** True when callables of type F avoid the heap fallback. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using Fn = std::decay_t<F>;
        return sizeof(Fn) <= Cap && alignof(Fn) <= alignof(void *) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct VTable
    {
        R (*invoke)(void *self, Args &&...args);
        /**
         * Move-construct into @p dst from @p src, then destroy src;
         * nullptr when a memcpy of the buffer does the same.
         */
        void (*relocate)(void *dst, void *src) noexcept;
        /** nullptr when the target is trivially destructible. */
        void (*destroy)(void *self) noexcept;
    };

    /** Adopt @p other 's target, leaving it empty. @pre *this empty. */
    void
    take(InlineFn &other) noexcept
    {
        if (!other.vt_)
            return;
        if (other.vt_->relocate)
            other.vt_->relocate(buf_, other.buf_);
        else
            std::memcpy(buf_, other.buf_, Cap);
        vt_ = std::exchange(other.vt_, nullptr);
    }

    template <typename Fn>
    struct InlineModel
    {
        static R
        invoke(void *self, Args &&...args)
        {
            return (*static_cast<Fn *>(self))(std::forward<Args>(args)...);
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            Fn *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from)); // lint-allow:naked-new
            from->~Fn();
        }

        static void
        destroy(void *self) noexcept
        {
            static_cast<Fn *>(self)->~Fn();
        }
    };

    template <typename Fn>
    struct HeapModel
    {
        static Fn *&ptr(void *self) { return *static_cast<Fn **>(self); }

        static R
        invoke(void *self, Args &&...args)
        {
            return (*ptr(self))(std::forward<Args>(args)...);
        }

        static void
        destroy(void *self) noexcept
        {
            cell_pool::destroy(ptr(self));
        }
    };

    template <typename Fn>
    static constexpr VTable inline_vtable{
        &InlineModel<Fn>::invoke,
        std::is_trivially_copyable_v<Fn> ? nullptr
                                         : &InlineModel<Fn>::relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr
                                             : &InlineModel<Fn>::destroy};

    template <typename Fn>
    static constexpr VTable heap_vtable{&HeapModel<Fn>::invoke, nullptr,
                                        &HeapModel<Fn>::destroy};

    alignas(void *) mutable unsigned char buf_[Cap];
    const VTable *vt_ = nullptr;
};

} // namespace barre
