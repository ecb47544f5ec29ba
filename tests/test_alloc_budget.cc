/**
 * @file
 * Heap budget of plant construction. This binary replaces the global
 * operator new/delete with counting wrappers around malloc/free, then
 * builds a 1,000-server plant configured like perfbench's
 * warehouse_100k (4 cores, delay-timer governors on a 100 us timer
 * wheel) and bounds the bytes its construction requests per server.
 * A footprint regression then fails here, not only in a benchmark's
 * peak RSS.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "dc/datacenter.hh"

namespace {

bool counting = false;
std::size_t bytesRequested = 0;
std::size_t allocations = 0;

void *
countedAlloc(std::size_t n)
{
    if (counting) {
        bytesRequested += n;
        ++allocations;
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form is replaced, so new/delete pairs stay matched
// under ASan's allocation-mismatch check.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace holdcsim;

TEST(AllocBudget, WheelPlantConstructionPerServer)
{
    constexpr std::size_t servers = 1000;
    DataCenterConfig cfg;
    cfg.nServers = servers;
    cfg.nCores = 4;
    cfg.controller = DataCenterConfig::Controller::delayTimer;
    cfg.delayTimerTau = 50 * msec;
    cfg.dispatch = DataCenterConfig::Dispatch::roundRobin;
    cfg.timerMode = DataCenterConfig::TimerMode::wheel;
    cfg.wheelGranularity = 100 * usec;

    bytesRequested = allocations = 0;
    counting = true;
    auto dc = std::make_unique<DataCenter>(cfg);
    counting = false;

    ASSERT_EQ(dc->numServers(), servers);
    const double perServer =
        static_cast<double>(bytesRequested) / servers;
    RecordProperty("bytes_per_server", static_cast<int>(perServer));
    EXPECT_LE(perServer, 4600.0)
        << allocations << " allocations, " << bytesRequested << " bytes";
}
