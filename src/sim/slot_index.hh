/**
 * @file
 * SlotIndex: a map from the id of a live object (a job, a flow) to the
 * slab slot that holds it.
 *
 * An open-addressing table with linear probing and backward-shift
 * deletion, so erasing leaves no tombstones and a lookup stops at the
 * first empty entry. The table doubles when it would pass 3/4 full
 * and never shrinks, so once it has grown to the peak number of live
 * ids, inserting and erasing allocate nothing.
 */

#ifndef HOLDCSIM_SIM_SLOT_INDEX_HH
#define HOLDCSIM_SIM_SLOT_INDEX_HH

#include <cstdint>
#include <vector>

namespace holdcsim {

class SlotIndex
{
  public:
    /** find()/erase() result for an id that is not present. */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    /** Slot of @p id, or npos. */
    std::uint32_t
    find(std::uint64_t id) const
    {
        if (_size == 0)
            return npos;
        for (std::size_t i = home(id);; i = (i + 1) & mask()) {
            const Entry &e = _table[i];
            if (e.slot == npos || e.id == id)
                return e.slot;
        }
    }

    /** Map @p id to @p slot; false (and no change) if @p id is present. */
    bool
    insert(std::uint64_t id, std::uint32_t slot)
    {
        if (4 * (_size + 1) > 3 * _table.size())
            grow();
        std::size_t i = home(id);
        for (; _table[i].slot != npos; i = (i + 1) & mask()) {
            if (_table[i].id == id)
                return false;
        }
        _table[i] = Entry{id, slot};
        ++_size;
        return true;
    }

    /** Remove @p id; returns the slot it mapped to, or npos. */
    std::uint32_t
    erase(std::uint64_t id)
    {
        if (_size == 0)
            return npos;
        std::size_t i = home(id);
        for (; _table[i].id != id; i = (i + 1) & mask()) {
            if (_table[i].slot == npos)
                return npos;
        }
        const std::uint32_t slot = _table[i].slot;
        if (slot == npos)
            return npos;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless its home lies cyclically in (hole, entry].
        for (std::size_t j = (i + 1) & mask(); _table[j].slot != npos;
             j = (j + 1) & mask()) {
            const std::size_t h = home(_table[j].id);
            if (((j - h) & mask()) >= ((j - i) & mask())) {
                _table[i] = _table[j];
                i = j;
            }
        }
        _table[i].slot = npos;
        --_size;
        return slot;
    }

    /** Live ids. */
    std::size_t size() const { return _size; }

  private:
    struct Entry {
        std::uint64_t id = 0;
        /** npos marks an empty entry. */
        std::uint32_t slot = npos;
    };

    std::size_t mask() const { return _table.size() - 1; }

    /** Fibonacci hashing: spreads sequential ids over the table. */
    std::size_t
    home(std::uint64_t id) const
    {
        return static_cast<std::size_t>(
            (id * 0x9e3779b97f4a7c15ULL) >> _shift);
    }

    void
    grow()
    {
        std::vector<Entry> old(_table.empty() ? 16 : 2 * _table.size());
        old.swap(_table);
        _shift = 64;
        for (std::size_t n = _table.size(); n > 1; n >>= 1)
            --_shift;
        _size = 0;
        for (const Entry &e : old) {
            if (e.slot != npos)
                insert(e.id, e.slot);
        }
    }

    std::vector<Entry> _table;
    std::size_t _size = 0;
    /** 64 - log2(table size). */
    unsigned _shift = 64;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_SLOT_INDEX_HH
