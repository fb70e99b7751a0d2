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
 * System therefore never touches its prefetchers' tables (about 210 MB
 * for the hybrid). The storage is a ZeroedArray, where an unwritten way
 * is zero bytes and reads as invalid: a table of 1 MB or more (the
 * temporal prefetchers' have several) gets pages of its own, costs
 * memory only for the pages its inserts reach, and gives them back to
 * the OS with the table. One bit per set records whether any write
 * reached it, and lookups treat an unwritten set as empty without
 * reading it, so a page is first touched by a write: one page fault,
 * not a fault to map a zero page and another to replace it.
 */

#ifndef BINGO_COMMON_TABLE_HPP
#define BINGO_COMMON_TABLE_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/sim_check.hpp"
#include "common/zeroed_array.hpp"

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
        checkSet(set);
        allocate();
        Entry *base = entries_.data() + set * ways_;
        Entry *victim = nullptr;
        if (markWritten(set)) {
            victim = base;  // Every way of a fresh set is invalid.
        } else {
            for (std::size_t w = 0; w < ways_; ++w) {
                Entry &e = base[w];
                if (e.valid && e.tag == tag) {
                    victim = &e;
                    break;
                }
                if (!e.valid && victim == nullptr)
                    victim = &e;
            }
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
        for (std::size_t set = 0; set < sets_; ++set)
            n += countIf(set, [](const Entry &) { return true; });
        return n;
    }

    /** Invalidate everything (the storage is freed). */
    void
    clear()
    {
        entries_ = {};
        tag_mirror_ = {};
        written_ = {};
        mirror_dirty_ = false;
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
        markWritten(index / ways_);
        mirror_dirty_ = true;
        return entries_[index];
    }
    const Entry &entryAt(std::size_t index) const
    {
        static const Entry kUnwritten{};
        return written(index / ways_) ? entries_[index] : kUnwritten;
    }

  private:
    /** Allocate the storage on first write: every way invalid, tag 0. */
    void
    allocate()
    {
        if (!entries_.empty())
            return;
        entries_ = ZeroedArray<Entry>(sets_ * ways_);
        tag_mirror_ = ZeroedArray<std::uint64_t>(sets_ * ways_);
        written_ = ZeroedArray<std::uint64_t>((sets_ + 63) / 64);
    }

    /** Whether any write has reached `set`. */
    bool
    written(std::size_t set) const
    {
        return !written_.empty() &&
               ((written_[set / 64] >> (set % 64)) & 1) != 0;
    }

    /** Record a write to `set` (allocated); true if it is the first. */
    bool
    markWritten(std::size_t set)
    {
        std::uint64_t &word = written_[set / 64];
        const std::uint64_t bit = std::uint64_t{1} << (set % 64);
        const bool first = (word & bit) == 0;
        word |= bit;
        return first;
    }

    /** First way of `set`, or nullptr while no write has reached it. */
    Entry *
    setBase(std::size_t set)
    {
        checkSet(set);
        return written(set) ? entries_.data() + set * ways_ : nullptr;
    }

    const Entry *
    setBase(std::size_t set) const
    {
        checkSet(set);
        return written(set) ? entries_.data() + set * ways_ : nullptr;
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

    /** Recopy the entry tags of every written set into the mirror. */
    void
    syncMirror()
    {
        for (std::size_t set = 0; set < sets_; ++set) {
            if (!written(set))
                continue;
            for (std::size_t i = set * ways_; i < (set + 1) * ways_; ++i)
                tag_mirror_[i] = entries_[i].tag;
        }
        mirror_dirty_ = false;
    }

    std::size_t sets_;
    std::size_t ways_;
    ZeroedArray<Entry> entries_;
    /// entries_[i].tag packed densely for the find() scan, which then
    /// strides 8 bytes per way instead of a whole Entry; invariant
    /// tag_mirror_[i] == entries_[i].tag except while
    /// mirror_dirty_ (set by mutable entryAt()).
    ZeroedArray<std::uint64_t> tag_mirror_;
    /// Bit s set once any write has reached set s (see the file
    /// comment); an unwritten set's ways are all zero bytes.
    ZeroedArray<std::uint64_t> written_;
    bool mirror_dirty_ = false;
    std::uint64_t tick_ = 0;
};

} // namespace bingo

#endif // BINGO_COMMON_TABLE_HPP
