#include "window_scheduler.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>
#include <tuple>

#include "sim/logging.hh"

namespace holdcsim::pdes {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0,
             std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

double
WindowScheduler::Stats::blockedFraction() const
{
    double busy = 0.0, blocked = 0.0;
    for (double s : workerBusySeconds)
        busy += s;
    for (double s : workerBlockedSeconds)
        blocked += s;
    const double total = busy + blocked;
    return total > 0.0 ? blocked / total : 0.0;
}

WindowScheduler::WindowScheduler(std::vector<Partition *> partitions,
                                 Tick lookahead)
    : _parts(std::move(partitions)), _lookahead(lookahead)
{
    if (_parts.empty())
        throw std::invalid_argument("WindowScheduler: no partitions");
    if (_parts.size() > 1 && _lookahead == 0) {
        throw std::invalid_argument(
            "WindowScheduler: zero lookahead cannot split partitions "
            "(a zero-latency cross-partition edge admits no window)");
    }
    _errors.resize(_parts.size());
    _stats.lookahead = _lookahead;
    _stats.workerBusySeconds.resize(_parts.size(), 0.0);
    _stats.workerBlockedSeconds.resize(_parts.size(), 0.0);
}

void
WindowScheduler::setInterruptFlag(const std::atomic<bool> *flag)
{
    _interrupt = flag;
    for (Partition *p : _parts)
        p->sim().setInterruptFlag(flag);
}

void
WindowScheduler::setBoundaryHook(std::function<void(Tick)> hook)
{
    _boundaryHook = std::move(hook);
}

Tick
WindowScheduler::run()
{
    if (_parts.size() == 1)
        runSingle();
    else
        runParallel();

    _stats.eventsProcessed = 0;
    Tick final_tick = 0;
    for (Partition *p : _parts) {
        _stats.eventsProcessed += p->sim().eventsProcessed();
        final_tick = std::max(final_tick, p->sim().curTick());
    }
    propagateErrors();
    return final_tick;
}

void
WindowScheduler::runSingle()
{
    // One partition needs no windows and no threads: plain
    // Simulator::run() on the calling thread, which is what makes
    // pods:1 event-for-event identical to the sequential kernel. A
    // model that posts to its own partition anyway (it should route
    // locally) still terminates: drain and resume until quiescent.
    Partition &p = *_parts[0];
    try {
        for (;;) {
            p.sim().run();
            std::vector<Message> &pend = p.outbox().pending();
            if (pend.empty())
                break;
            for (Message &m : pend) {
                p.deliver(m.when, std::move(m.fn));
                ++_stats.messages;
            }
            pend.clear();
        }
    } catch (...) {
        _errors[0] = std::current_exception();
    }
}

void
WindowScheduler::runParallel()
{
    // Plan the first window before any worker starts.
    bool any_fg = false;
    Tick next = maxTick;
    for (Partition *p : _parts) {
        if (p->sim().eventQueue().foregroundCount() > 0)
            any_fg = true;
        if (p->sim().hasPendingEvents())
            next = std::min(next, p->sim().nextEventTick());
    }
    if (!any_fg) {
        _done = true;
        return;
    }
    _floor = next;
    _bound = next >= maxTick - _lookahead ? maxTick : next + _lookahead;

    const std::size_t n = _parts.size();
    std::barrier sync(static_cast<std::ptrdiff_t>(n),
                      [this]() noexcept { drainAndPlan(); });
    // One thread per partition for the whole run: every worker must
    // arrive at every barrier. workerLoop() absorbs partition errors,
    // so no exception escapes a thread.
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < n; ++w)
        threads.emplace_back([this, w, &sync] { workerLoop(w, sync); });
    for (std::thread &t : threads)
        t.join();

    // No foreground work is left anywhere, but a partition may still
    // hold deferred timers (server idle ladders): run() on the drained
    // partition ends its clock at the last of them, as in runSingle().
    if (_barrierError)
        return;
    for (const std::exception_ptr &e : _errors)
        if (e)
            return;
    for (std::size_t w = 0; w < n; ++w) {
        try {
            _parts[w]->sim().run();
        } catch (...) {
            _errors[w] = std::current_exception();
        }
    }
}

template <typename Barrier>
void
WindowScheduler::workerLoop(std::size_t w, Barrier &sync)
{
    using clock = std::chrono::steady_clock;
    while (!_done) {
        const auto t0 = clock::now();
        try {
            _parts[w]->sim().runBefore(_bound);
        } catch (...) {
            // SimInterrupted (watchdog) or SimAbortError (invariant):
            // record and keep arriving at the barrier -- a missing
            // arrival would deadlock every other worker.
            _errors[w] = std::current_exception();
        }
        const auto t1 = clock::now();
        _stats.workerBusySeconds[w] += secondsSince(t0, t1);
        sync.arrive_and_wait();
        _stats.workerBlockedSeconds[w] += secondsSince(t1, clock::now());
    }
}

void
WindowScheduler::drainAndPlan() noexcept
{
    ++_stats.windows;
    for (const std::exception_ptr &e : _errors) {
        if (e) {
            _done = true;
            return;
        }
    }
    try {
        if (_boundaryHook)
            _boundaryHook(_floor);

        // Drain every outbox into one deterministic batch. The sort
        // key mirrors the sequential kernel's execution order for the
        // same deliveries: tick first, then send time (send order and
        // execution order coincide within a window in the sequential
        // interleaving), then source partition and send sequence as
        // stable tiebreaks.
        std::vector<Message> batch;
        for (Partition *p : _parts) {
            std::vector<Message> &pend = p->outbox().pending();
            batch.insert(batch.end(),
                         std::make_move_iterator(pend.begin()),
                         std::make_move_iterator(pend.end()));
            pend.clear();
        }
        std::sort(batch.begin(), batch.end(),
                  [](const Message &a, const Message &b) {
                      return std::tie(a.when, a.sentAt, a.src, a.seq) <
                             std::tie(b.when, b.sentAt, b.src, b.seq);
                  });
        for (Message &m : batch) {
            if (m.when < _bound) {
                // The destination may already have simulated past
                // m.when: the send's latency undercut the lookahead.
                throw SimAbortError(detail::format(
                    "pdes: mailbox message from partition ", m.src,
                    " to ", m.dst, " lands at ", m.when,
                    " inside the window bound ", _bound,
                    " (latency < lookahead ", _lookahead, ")"));
            }
            _parts[m.dst]->deliver(m.when, std::move(m.fn));
        }
        _stats.messages += batch.size();

        // Done when no partition holds foreground work (outboxes are
        // empty now); otherwise open the next window at the global
        // minimum next event tick, hopping over idle stretches.
        bool any_fg = false;
        Tick next = maxTick;
        for (Partition *p : _parts) {
            if (p->sim().eventQueue().foregroundCount() > 0)
                any_fg = true;
            if (p->sim().hasPendingEvents())
                next = std::min(next, p->sim().nextEventTick());
        }
        if (!any_fg) {
            _done = true;
            return;
        }
        if (next > _bound)
            ++_stats.fastForwards;
        _floor = next;
        _bound =
            next >= maxTick - _lookahead ? maxTick : next + _lookahead;
    } catch (...) {
        _barrierError = std::current_exception();
        _done = true;
    }
}

void
WindowScheduler::propagateErrors()
{
    // Lowest partition index wins so a multi-failure run rethrows the
    // same exception every time.
    for (const std::exception_ptr &e : _errors) {
        if (e)
            std::rethrow_exception(e);
    }
    if (_barrierError)
        std::rethrow_exception(_barrierError);
}

} // namespace holdcsim::pdes
