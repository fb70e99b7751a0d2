/**
 * @file
 * Generic set-associative table with true-LRU replacement.
 *
 * Every metadata structure in the prefetchers (SMS PHT, Bingo unified
 * history, SPP signature/pattern tables, accumulation/filter tables) is
 * a small set-associative array. This template centralizes the set
 * indexing, tag matching, LRU bookkeeping and victim selection so each
 * prefetcher only describes *what* it stores, not *how*.
 *
 * Tags are 64-bit values supplied by the caller (typically a hash or a
 * packed event). The table never interprets them. Lookups can also scan
 * a set with a caller-supplied predicate, which is exactly what Bingo's
 * short-event (partial-tag) match needs. Predicates and visitors are
 * template parameters, not std::function: these scans sit on the
 * per-access hot path of every prefetcher, and the indirect call per
 * way was a measurable fraction of lookup cost.
 *
 * Storage is allocated on the first write (insert() or a mutable
 * entryAt()); until then every lookup sees an empty table. Building a
 * System therefore never zeroes its prefetchers' tables (about 210 MB
 * for the hybrid), so its cost no longer depends on whether the heap
 * hands back pages a freed System left behind or fresh ones.
 */

#ifndef BINGO_COMMON_TABLE_HPP
#define BINGO_COMMON_TABLE_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/sim_check.hpp"

namespace bingo
{

/** Set-associative table of `Data` entries keyed by 64-bit tags. */
template <typename Data>
class SetAssocTable
{
  public:
    /** One way of one set. */
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;  ///< Higher = more recently used.
        Data data{};
    };

    /**
     * @param num_sets Number of sets; must be a power of two.
     * @param num_ways Associativity.
     */
    SetAssocTable(std::size_t num_sets, std::size_t num_ways)
        : sets_(num_sets), ways_(num_ways)
    {
        if (num_sets == 0 || (num_sets & (num_sets - 1)) != 0)
            throw std::invalid_argument(
                "SetAssocTable: num_sets must be a nonzero power "
                "of two");
        if (num_ways == 0)
            throw std::invalid_argument(
                "SetAssocTable: num_ways must be nonzero");
    }

    std::size_t numSets() const { return sets_; }
    std::size_t capacity() const { return sets_ * ways_; }

    /** Map an index hash to a set number. */
    std::size_t
    setIndex(std::uint64_t index_hash) const
    {
        return index_hash & (sets_ - 1);
    }

    /**
     * Find the entry with an exactly matching tag in `set`.
     * Updates recency when `touch` is true.
     * @return Pointer into the table, or nullptr.
     */
    Entry *
    find(std::size_t set, std::uint64_t tag, bool touch = true)
    {
        Entry *base = setBase(set);
        if (base == nullptr)
            return nullptr;
        if (mirror_dirty_)
            syncMirror();
        // Compare against the packed tag mirror and touch an Entry only
        // on a tag match (stale tags of invalidated ways are filtered
        // by the valid check; duplicates resolve in way order).
        const std::uint64_t *tags = tag_mirror_.data() + set * ways_;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (tags[w] != tag || !base[w].valid)
                continue;
            if (touch)
                base[w].lru = ++tick_;
            return &base[w];
        }
        return nullptr;
    }

    /**
     * Visit every valid entry in `set` satisfying `pred`, in way
     * order. No allocation, no recency update; `pred` and `visit`
     * inline.
     */
    template <typename Pred, typename Visit>
    void
    forEachIf(std::size_t set, const Pred &pred,
              const Visit &visit) const
    {
        const Entry *base = setBase(set);
        if (base == nullptr)
            return;
        for (std::size_t w = 0; w < ways_; ++w) {
            const Entry &e = base[w];
            if (e.valid && pred(e))
                visit(e);
        }
    }

    /** Number of valid entries in `set` satisfying `pred`. */
    template <typename Pred>
    std::size_t
    countIf(std::size_t set, const Pred &pred) const
    {
        std::size_t n = 0;
        forEachIf(set, pred, [&n](const Entry &) { ++n; });
        return n;
    }

    /**
     * Insert `data` under `tag` in `set`, evicting the LRU way if the
     * set is full. An existing entry with the same tag is overwritten.
     * @return Reference to the inserted entry.
     */
    Entry &
    insert(std::size_t set, std::uint64_t tag, Data data)
    {
        allocate();
        Entry *base = setBase(set);
        Entry *victim = nullptr;
        for (std::size_t w = 0; w < ways_; ++w) {
            Entry &e = base[w];
            if (e.valid && e.tag == tag) {
                victim = &e;
                break;
            }
            if (!e.valid && victim == nullptr)
                victim = &e;
        }
        if (victim == nullptr) {
            victim = base;
            for (std::size_t w = 1; w < ways_; ++w) {
                if (base[w].lru < victim->lru)
                    victim = &base[w];
            }
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = ++tick_;
        victim->data = std::move(data);
        tag_mirror_[static_cast<std::size_t>(
            victim - entries_.data())] = tag;
        return *victim;
    }

    /** Invalidate the entry with `tag` in `set`, if present. */
    bool
    erase(std::size_t set, std::uint64_t tag)
    {
        if (Entry *e = find(set, tag, false)) {
            e->valid = false;
            return true;
        }
        return false;
    }

    /** Number of valid entries across the whole table. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const Entry &e : entries_) {
            if (e.valid)
                ++n;
        }
        return n;
    }

    /** Invalidate everything. */
    void
    clear()
    {
        for (Entry &e : entries_)
            e.valid = false;
        tick_ = 0;
    }

    /**
     * Direct entry access by flat index in [0, capacity()). Used by
     * the chaos layer to pick a random metadata entry to perturb;
     * not part of any lookup path. Mutable access may rewrite the
     * entry's tag behind the packed mirror, so it marks the mirror
     * dirty; the next find() resynchronizes (cheap, and perturbations
     * are rare by construction).
     */
    Entry &
    entryAt(std::size_t index)
    {
        allocate();
        mirror_dirty_ = true;
        return entries_[index];
    }
    const Entry &entryAt(std::size_t index) const
    {
        static const Entry kUnwritten{};
        return entries_.empty() ? kUnwritten : entries_[index];
    }

  private:
    /** Allocate the zeroed storage on first write. */
    void
    allocate()
    {
        if (!entries_.empty())
            return;
        entries_.resize(sets_ * ways_);
        tag_mirror_.assign(sets_ * ways_, 0);
    }

    /** First way of `set`, or nullptr while nothing is allocated. */
    Entry *
    setBase(std::size_t set)
    {
        checkSet(set);
        return entries_.empty() ? nullptr
                                : entries_.data() + set * ways_;
    }

    const Entry *
    setBase(std::size_t set) const
    {
        checkSet(set);
        return entries_.empty() ? nullptr
                                : entries_.data() + set * ways_;
    }

    /**
     * A set index past the table can only come from a broken index
     * derivation — a machine invariant, reported as one rather than
     * silently reading another set's entries.
     */
    void
    checkSet(std::size_t set) const
    {
        if (set >= sets_) {
            throw SimError("table", 0,
                           "set index " + std::to_string(set) +
                               " outside " + std::to_string(sets_) +
                               " sets");
        }
    }

    /** Recopy every entry tag into the packed mirror. */
    void
    syncMirror()
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            tag_mirror_[i] = entries_[i].tag;
        mirror_dirty_ = false;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<Entry> entries_;
    /// entries_[i].tag packed densely for the find() scan, which then
    /// strides 8 bytes per way instead of a whole Entry; invariant
    /// tag_mirror_[i] == entries_[i].tag except while
    /// mirror_dirty_ (set by mutable entryAt()).
    std::vector<std::uint64_t> tag_mirror_;
    bool mirror_dirty_ = false;
    std::uint64_t tick_ = 0;
};

} // namespace bingo

#endif // BINGO_COMMON_TABLE_HPP
