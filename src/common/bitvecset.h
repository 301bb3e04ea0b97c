/**
 * @file
 * Flat insertion-ordered set of BitVecs.
 *
 * The items live in one vector, in the order they were first inserted;
 * an open-addressing table of item indices (linear probing, load at
 * most 1/2) answers membership.  There is one heap block per array and
 * no node per state, so building a closure of tens of thousands of
 * states costs a few reallocations instead of one allocation per state.
 * Items are never erased.
 */

#ifndef RASENGAN_COMMON_BITVECSET_H
#define RASENGAN_COMMON_BITVECSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/logging.h"

namespace rasengan {

class BitVecSet
{
  public:
    BitVecSet() = default;

    /** The set {@p x}. */
    explicit BitVecSet(const BitVec &x) { insert(x); }

    /** Insert @p x; true when it was not a member yet. */
    bool
    insert(const BitVec &x)
    {
        if (2 * (items_.size() + 1) > slots_.size())
            grow();
        size_t s = slotOf(x);
        for (; slots_[s] != 0; s = (s + 1) & mask_)
            if (items_[slots_[s] - 1] == x)
                return false;
        panic_if(items_.size() >= UINT32_MAX, "BitVecSet is full");
        items_.push_back(x);
        slots_[s] = static_cast<uint32_t>(items_.size());
        return true;
    }

    /** Returned by indexOf for a non-member. */
    static constexpr size_t npos = static_cast<size_t>(-1);

    /** Insertion index of @p x, or npos when it is not a member. */
    size_t
    indexOf(const BitVec &x) const
    {
        if (slots_.empty())
            return npos;
        for (size_t s = slotOf(x); slots_[s] != 0; s = (s + 1) & mask_)
            if (items_[slots_[s] - 1] == x)
                return slots_[s] - 1;
        return npos;
    }

    /** True when @p x is a member. */
    bool contains(const BitVec &x) const { return indexOf(x) != npos; }

    size_t size() const { return items_.size(); }

    /** The @p i-th item in insertion order. */
    const BitVec &operator[](size_t i) const { return items_[i]; }

  private:
    size_t slotOf(const BitVec &x) const { return x.hash() & mask_; }

    /** Double the table (16 slots at first) and re-slot every item. */
    void
    grow()
    {
        const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
        slots_.assign(capacity, 0);
        mask_ = capacity - 1;
        for (size_t i = 0; i < items_.size(); ++i) {
            size_t s = slotOf(items_[i]);
            while (slots_[s] != 0)
                s = (s + 1) & mask_;
            slots_[s] = static_cast<uint32_t>(i + 1);
        }
    }

    std::vector<BitVec> items_;
    /** Item index + 1 per slot; 0 marks an empty slot. */
    std::vector<uint32_t> slots_;
    size_t mask_ = 0;
};

} // namespace rasengan

#endif // RASENGAN_COMMON_BITVECSET_H
