/**
 * @file
 * ZeroedAllocator: a std::vector allocator for element types whose
 * all-zero bytes are the value-initialised element (pointers,
 * integers). Storage comes from calloc, whose large blocks are fresh
 * pages that read as zero without being written, so a resize() that
 * adds n elements writes none of them: the first thread to write an
 * element takes that page's fault. A fleet built on several threads
 * (DataCenter) thus faults each registry page in on the worker that
 * fills it, not all of them on the caller first. An element popped,
 * erased or cleared is zeroed back, so spare capacity always reads as
 * value-initialised, as the no-op construct() assumes.
 */

#ifndef HOLDCSIM_SIM_ZEROED_ALLOCATOR_HH
#define HOLDCSIM_SIM_ZEROED_ALLOCATOR_HH

#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace holdcsim {

template <typename T>
struct ZeroedAllocator {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "a zeroed element must be plain bytes");
    using value_type = T;

    ZeroedAllocator() = default;
    template <typename U>
    ZeroedAllocator(const ZeroedAllocator<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        if (void *p = std::calloc(n, sizeof(T)))
            return static_cast<T *>(p);
        throw std::bad_alloc();
    }
    void deallocate(T *p, std::size_t) noexcept { std::free(p); }

    /** Value-initialisation: the bytes are zero already. */
    template <typename U>
    void
    construct(U *) noexcept
    {}
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }
    /** Back to zero, for the next no-op construct() here. */
    template <typename U>
    void
    destroy(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U();
    }

    friend bool
    operator==(const ZeroedAllocator &, const ZeroedAllocator &) noexcept
    {
        return true;
    }
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_ZEROED_ALLOCATOR_HH
