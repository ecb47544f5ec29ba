#include "stats.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

#include "logging.hh"

namespace holdcsim {

// ---------------------------------------------------------------- Accumulator

void
Accumulator::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;
    double delta = v - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (v - _mean);
}

double
Accumulator::mean() const
{
    return _count ? _mean : 0.0;
}

double
Accumulator::variance() const
{
    return _count ? _m2 / static_cast<double>(_count) : 0.0;
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

double
Accumulator::min() const
{
    return _count ? _min : 0.0;
}

double
Accumulator::max() const
{
    return _count ? _max : 0.0;
}

void
Accumulator::reset()
{
    *this = Accumulator{};
}

// ----------------------------------------------------------------- Percentile

void
Percentile::sample(double v)
{
    _samples.push_back(v);
    _sorted = _samples.size() <= 1;
    _sum += v;
}

double
Percentile::mean() const
{
    return _samples.empty() ? 0.0
                            : _sum / static_cast<double>(_samples.size());
}

const std::vector<double> &
Percentile::sorted() const
{
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
    return _samples;
}

double
Percentile::quantile(double q) const
{
    if (_samples.empty())
        return 0.0;
    if (q < 0.0 || q > 1.0)
        HOLDCSIM_PANIC("quantile ", q, " outside [0, 1]");
    const auto &s = sorted();
    if (s.size() == 1)
        return s.front();
    double pos = q * static_cast<double>(s.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= s.size())
        return s.back();
    double frac = pos - static_cast<double>(lo);
    return s[lo] * (1.0 - frac) + s[lo + 1] * frac;
}

double
Percentile::cdfAt(double x) const
{
    if (_samples.empty())
        return 0.0;
    const auto &s = sorted();
    auto it = std::upper_bound(s.begin(), s.end(), x);
    return static_cast<double>(it - s.begin()) /
           static_cast<double>(s.size());
}

void
Percentile::reset()
{
    _samples.clear();
    _sorted = true;
    _sum = 0.0;
}

// ------------------------------------------------------------------ StateBook

template <int States>
void
StateBook<States>::accrue(int state, Tick now)
{
    if (state < 0 || state >= maxStates)
        HOLDCSIM_PANIC("StateResidency state ", state, " outside [0, ",
                       maxStates, ")");
    if (now < _lastTick)
        HOLDCSIM_PANIC("StateResidency fed a tick that moves backwards");
    _residency[static_cast<std::size_t>(state)] += now - _lastTick;
    _lastTick = now;
}

template <int States>
Tick
StateBook<States>::residency(int state) const
{
    if (state < 0 || state >= maxStates)
        return 0;
    return _residency[static_cast<std::size_t>(state)];
}

template <int States>
Tick
StateBook<States>::totalTime() const
{
    Tick total = 0;
    for (Tick t : _residency)
        total += t;
    return total;
}

template <int States>
double
StateBook<States>::fraction(int state) const
{
    const Tick total = totalTime();
    if (total == 0)
        return 0.0;
    return static_cast<double>(residency(state)) /
           static_cast<double>(total);
}

template class StateBook<5>;
template class StateBook<6>;

// ------------------------------------------------------------------ StatGroup

void
StatGroup::addLine(std::string_view key, std::string_view value)
{
    _lines.append(_prefix).append(key).append(1, ' ');
    _lines.append(value).append(1, '\n');
}

void
StatGroup::add(std::string_view key, double value)
{
    // Columns past the last memo share it; the bits still decide.
    Memo &m = _memo[std::min(_column++, _memo.size() - 1)];
    const auto bits = std::bit_cast<std::uint64_t>(value);
    if (bits != m.bits) {
        // %g at precision 6 is what `os << value` prints under default
        // flags; to_chars gives the same bytes without a stream.
        m.bits = bits;
        m.size = static_cast<std::uint8_t>(
            std::to_chars(m.text, m.text + sizeof m.text, value,
                          std::chars_format::general, 6).ptr - m.text);
    }
    addLine(key, {m.text, m.size});
}

void
StatGroup::add(std::string_view key, std::uint64_t value)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, value);
    addLine(key, std::string_view(buf, res.ptr - buf));
}

void
StatGroup::dump(std::ostream &os) const
{
    os.write(_lines.data(), static_cast<std::streamsize>(_lines.size()));
}

namespace {

constexpr std::size_t rowFlushAt = 64 * 1024;

} // namespace

void
StatGroup::row(std::ostream &os, std::string_view name, std::uint64_t id)
{
    if (_lines.size() >= rowFlushAt)
        flush(os);
    row(name, id);
}

void
StatGroup::row(std::string_view name, std::uint64_t id)
{
    _lines.reserve(rowFlushAt + 4096); // room for the row that crosses it
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, id).ptr;
    _prefix.assign(name).append(buf, end).append(1, '.');
    _column = 0;
}

void
StatGroup::flush(std::ostream &os)
{
    dump(os);
    _lines.clear();
}

} // namespace holdcsim
