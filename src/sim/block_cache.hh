/**
 * @file
 * BlockCache: spare blocks a model component hands back for the next
 * user instead of freeing them. A core pool holds the busy state of
 * its cores (tasks, start ticks, completion events) only while one of
 * them runs a task (see core.hh); the blocks it returns wait here,
 * already built, so a fleet keeps as many as were ever busy at once,
 * not one per server that ever ran a task.
 *
 * Blocks are shelved by kind: the function that destroys a block of
 * that type, plus an element count. Each Simulator owns one cache
 * (Simulator::blockCache()), so replicas on different threads share
 * nothing; it destroys what it still holds when it goes.
 */

#ifndef HOLDCSIM_SIM_BLOCK_CACHE_HH
#define HOLDCSIM_SIM_BLOCK_CACHE_HH

#include <cstddef>
#include <vector>

namespace holdcsim {

class BlockCache
{
  public:
    /** Destroys and frees a block of @p count elements. */
    using Destroy = void (*)(void *block, std::size_t count);

    BlockCache() = default;
    BlockCache(const BlockCache &) = delete;
    BlockCache &operator=(const BlockCache &) = delete;

    ~BlockCache()
    {
        for (Shelf &s : _shelves)
            for (void *block : s.blocks)
                s.destroy(block, s.count);
    }

    /** A spare block of this kind, or null when there is none. */
    void *
    take(Destroy destroy, std::size_t count)
    {
        Shelf *s = find(destroy, count);
        if (!s || s->blocks.empty())
            return nullptr;
        void *block = s->blocks.back();
        s->blocks.pop_back();
        return block;
    }

    /** Keep @p block (built, of this kind) for a later take(). */
    void
    give(void *block, Destroy destroy, std::size_t count)
    {
        Shelf *s = find(destroy, count);
        if (!s)
            s = &_shelves.emplace_back(Shelf{destroy, count, {}});
        s->blocks.push_back(block);
    }

    /** Spare blocks held, over every kind. */
    std::size_t
    spares() const
    {
        std::size_t n = 0;
        for (const Shelf &s : _shelves)
            n += s.blocks.size();
        return n;
    }

  private:
    struct Shelf {
        Destroy destroy;
        std::size_t count;
        std::vector<void *> blocks;
    };

    Shelf *
    find(Destroy destroy, std::size_t count)
    {
        for (Shelf &s : _shelves)
            if (s.destroy == destroy && s.count == count)
                return &s;
        return nullptr;
    }

    /** One per kind in use; a plant of identical servers has one. */
    std::vector<Shelf> _shelves;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_BLOCK_CACHE_HH
