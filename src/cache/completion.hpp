/**
 * @file
 * Typed memory-completion record: the one event the simulator
 * schedules.
 *
 * Every load fill, store release and cache fill travels as a
 * Completion through Cache::access -> MSHR -> MemoryLower::fetch ->
 * EventQueue, which stores the record itself and fires it with the
 * cycle it was scheduled for. The dominant cases are known statically:
 * a load fill completes an OooCore ROB slot, a store release frees an
 * LSQ entry, and a lower-level fill lands in a Cache MSHR slot. A
 * Completion carries exactly {kind, target, seq-or-slot} and
 * dispatches through one switch to the target's (inline) completion
 * method. Arbitrary callables — tests, benches, observers — still
 * work: they take the Generic kind, a heap-held holder that accepts
 * `void(Cycle)` and `void()` callables, move-only ones included.
 */

#ifndef BINGO_CACHE_COMPLETION_HPP
#define BINGO_CACHE_COMPLETION_HPP

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace bingo
{

class OooCore;
class Cache;

/** Tagged completion record; see file comment. */
class Completion
{
  public:
    enum class Kind : std::uint8_t
    {
        None,          ///< Empty (default-constructed or moved-from).
        LoadFill,      ///< OooCore::completeLoad(seq, when).
        StoreRelease,  ///< OooCore::completeStore(when).
        CacheFill,     ///< Cache::handleFill(slot, when).
        Generic,       ///< Heap-held callable (tests, benches).
    };

    Completion() noexcept = default;

    /**
     * Any other callable takes the Generic path. A `void(Cycle)`
     * callable receives the completion cycle; a `void()` one is
     * simply invoked.
     */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, Completion> &&
                  (std::is_invocable_v<std::decay_t<Fn> &, Cycle> ||
                   std::is_invocable_v<std::decay_t<Fn> &>)>>
    Completion(Fn &&fn)  // NOLINT(google-explicit-constructor)
        : kind_(Kind::Generic),
          fn_(std::make_unique<Holder<std::decay_t<Fn>>>(
              std::forward<Fn>(fn)))
    {
    }

    /** Fill completing ROB sequence `seq` of `core`. */
    static Completion
    loadFill(OooCore *core, std::uint64_t seq) noexcept
    {
        Completion c;
        c.kind_ = Kind::LoadFill;
        c.target_ = core;
        c.seq_ = seq;
        return c;
    }

    /** Store write-completion freeing one LSQ entry of `core`. */
    static Completion
    storeRelease(OooCore *core) noexcept
    {
        Completion c;
        c.kind_ = Kind::StoreRelease;
        c.target_ = core;
        return c;
    }

    /** Lower-level fill landing in MSHR slot `slot` of `cache`. */
    static Completion
    cacheFill(Cache *cache, std::uint32_t slot) noexcept
    {
        Completion c;
        c.kind_ = Kind::CacheFill;
        c.target_ = cache;
        c.slot_ = slot;
        return c;
    }

    Completion(Completion &&other) noexcept
        : kind_(std::exchange(other.kind_, Kind::None)),
          slot_(other.slot_), target_(other.target_), seq_(other.seq_),
          fn_(std::move(other.fn_))
    {
    }

    Completion &
    operator=(Completion &&other) noexcept
    {
        if (this != &other) {
            kind_ = std::exchange(other.kind_, Kind::None);
            slot_ = other.slot_;
            target_ = other.target_;
            seq_ = other.seq_;
            fn_ = std::move(other.fn_);
        }
        return *this;
    }

    Completion(const Completion &) = delete;
    Completion &operator=(const Completion &) = delete;

    Kind kind() const noexcept { return kind_; }

    explicit operator bool() const noexcept
    {
        return kind_ != Kind::None;
    }

    /**
     * Dispatch to the target's completion method (no-op when empty).
     * Defined in completion.cpp, which sees the full OooCore/Cache
     * definitions; the typed branches call inline methods, so the
     * whole path is one direct call plus a switch.
     */
    void operator()(Cycle when) const;

  private:
    /** The Generic kind's owned callable. */
    struct Callable
    {
        virtual ~Callable() = default;
        virtual void call(Cycle when) = 0;
    };

    template <typename Fn>
    struct Holder final : Callable
    {
        explicit Holder(Fn f) : fn(std::move(f)) {}

        void
        call(Cycle when) override
        {
            if constexpr (std::is_invocable_v<Fn &, Cycle>)
                fn(when);
            else
                fn();
        }

        Fn fn;
    };

    Kind kind_ = Kind::None;
    std::uint32_t slot_ = 0;
    void *target_ = nullptr;
    std::uint64_t seq_ = 0;
    std::unique_ptr<Callable> fn_;
};

/**
 * Completion callback of a memory access: invoked with the cycle the
 * data arrives.
 */
using FillCallback = Completion;

} // namespace bingo

#endif // BINGO_CACHE_COMPLETION_HPP
