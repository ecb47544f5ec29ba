/**
 * @file
 * SlotIndex, the id -> slab slot table behind the scheduler's job
 * slab and the flow manager's flow slab, against a std::map reference
 * model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>

#include "sim/slot_index.hh"

using namespace holdcsim;

class SlotIndexModel : public ::testing::TestWithParam<int>
{
};

TEST_P(SlotIndexModel, RandomInsertEraseFindMatchesMapReference)
{
    // Ids come from a small pool, so inserts hit present ids and
    // erases and finds hit absent ones. Pool 0 is a sliding window of
    // sequential ids, as a job or flow stream makes; pool 1 random
    // ids; pool 2 ids that differ only above bit 32. Pool 3 multiplies
    // by the inverse of the index's hash multiplier, so every id's
    // hash has all-ones top bits: every home is the table's last
    // entry and every probe run collides and wraps around.
    const int pool = GetParam();
    std::mt19937_64 rng(100 + pool);
    constexpr std::uint64_t mult = 0x9e3779b97f4a7c15ULL;
    std::uint64_t inverse = mult;
    for (int i = 0; i < 6; ++i)
        inverse *= 2 - mult * inverse;
    ASSERT_EQ(mult * inverse, 1u);
    std::uint64_t next = 32;
    const auto draw = [&]() -> std::uint64_t {
        switch (pool) {
          case 0: return next - 32 + rng() % 64;
          case 1: return rng() % 700;
          case 2: return (rng() % 700) << 32;
          default: return (~0ULL << 24 | rng() % 700) * inverse;
        }
    };
    SlotIndex index;
    std::map<std::uint64_t, std::uint32_t> model;
    for (int step = 0; step < 40000; ++step) {
        const std::uint64_t id = draw();
        switch (rng() % 3) {
          case 0: {
            const auto slot = static_cast<std::uint32_t>(rng() % 1000);
            const bool fresh = model.emplace(id, slot).second;
            ASSERT_EQ(index.insert(id, slot), fresh) << step;
            next += fresh;
            break;
          }
          case 1: {
            auto it = model.find(id);
            const std::uint32_t want =
                it == model.end() ? SlotIndex::npos : it->second;
            if (it != model.end())
                model.erase(it);
            ASSERT_EQ(index.erase(id), want) << step;
            break;
          }
          default: {
            auto it = model.find(id);
            ASSERT_EQ(index.find(id),
                      it == model.end() ? SlotIndex::npos : it->second)
                << step;
          }
        }
        ASSERT_EQ(index.size(), model.size()) << step;
        if (step % 4096 == 0) {
            for (const auto &[key, slot] : model)
                ASSERT_EQ(index.find(key), slot) << step;
        }
    }
    for (const auto &[key, slot] : model)
        ASSERT_EQ(index.find(key), slot);
}

INSTANTIATE_TEST_SUITE_P(Pools, SlotIndexModel, ::testing::Range(0, 4));
