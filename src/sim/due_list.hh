/**
 * @file
 * DueList: one due tick per dense id -- one level of a closed-form
 * idle ladder, a switch's port LPI entries or its line cards' sleeps
 * (see switch.hh) -- kept in tick order as an intrusive doubly linked
 * list. A level arms its stages in time order (deadlineAt(t, d), one
 * d, t never going back), so set() appends at the tail in O(1); an
 * out-of-order tick walks back to its place, equal ticks keep arm
 * order. front() and back() are O(1): nothing scans the ids.
 */

#ifndef HOLDCSIM_SIM_DUE_LIST_HH
#define HOLDCSIM_SIM_DUE_LIST_HH

#include <cstdint>
#include <vector>

#include "types.hh"

namespace holdcsim {

class DueList
{
  public:
    explicit DueList(unsigned n) : _node(n, Node{maxTick, none, none}) {}

    /** When @p id is due (maxTick: not pending). */
    Tick at(unsigned id) const { return _node[id].at; }
    /** The earliest due tick (maxTick: none pending). */
    Tick front() const { return _head == none ? maxTick : _node[_head].at; }
    /** The id due at front(). @pre front() != maxTick */
    unsigned frontId() const { return _head; }
    /** The latest due tick (maxTick: none pending). */
    Tick back() const { return _tail == none ? maxTick : _node[_tail].at; }

    /** Make @p id due at @p at (< maxTick), replacing its tick. */
    void
    set(unsigned id, Tick at)
    {
        clear(id);
        std::uint32_t p = _tail;
        while (p != none && _node[p].at > at)
            p = _node[p].prev;
        Node &n = _node[id];
        n = Node{at, p, p == none ? _head : _node[p].next};
        (p == none ? _head : _node[p].next) = id;
        (n.next == none ? _tail : _node[n.next].prev) = id;
    }

    /** @p id is no longer due. */
    void
    clear(unsigned id)
    {
        Node &n = _node[id];
        if (n.at == maxTick)
            return;
        (n.prev == none ? _head : _node[n.prev].next) = n.next;
        (n.next == none ? _tail : _node[n.next].prev) = n.prev;
        n.at = maxTick;
    }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};
    struct Node {
        Tick at;
        std::uint32_t prev, next;
    };
    std::vector<Node> _node;
    std::uint32_t _head = none, _tail = none;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_DUE_LIST_HH
