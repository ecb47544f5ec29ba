#include "parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace holdcsim {

unsigned
defaultWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

void
parallelFor(unsigned workers, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (workers == 0)
        workers = defaultWorkers();

    std::mutex mu; // guards the two fields below
    std::size_t error_index = n;
    std::exception_ptr error;
    auto call = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (i < error_index) {
                error_index = i;
                error = std::current_exception();
            }
        }
    };

    if (workers == 1) {
        for (std::size_t i = 0; i < n; ++i)
            call(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        const std::size_t count = std::min<std::size_t>(workers, n);
        try {
            for (std::size_t t = 0; t < count; ++t) {
                threads.emplace_back([&] {
                    for (std::size_t i = next++; i < n; i = next++)
                        call(i);
                });
            }
        } catch (...) {
            // Thread creation failed: let the started threads finish
            // their current index, join them, and report the failure.
            next = n;
            for (std::thread &t : threads)
                t.join();
            throw;
        }
        for (std::thread &t : threads)
            t.join();
    }

    if (error)
        std::rethrow_exception(error);
}

} // namespace holdcsim
