#include "sweep.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace holdcsim {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

} // namespace

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        std::string item = trim(text.substr(start, comma - start));
        if (!item.empty())
            out.push_back(std::move(item));
        start = comma + 1;
    }
    return out;
}

std::string
SweepPoint::label() const
{
    std::string out;
    for (const auto &[key, value] : assignments) {
        if (!out.empty())
            out += ' ';
        out += key + '=' + value;
    }
    return out;
}

void
SweepSpec::add(std::string key, std::vector<std::string> values)
{
    if (values.empty())
        HOLDCSIM_PANIC("sweep key '", key, "' has no values");
    _keys.push_back(std::move(key));
    _values.push_back(std::move(values));
}

std::string
SweepSpec::addFlag(const std::string &flag)
{
    std::size_t eq = flag.find('=');
    if (eq == std::string::npos || eq == 0)
        HOLDCSIM_PANIC("bad sweep flag '", flag,
                       "': expected key=a,b,c");
    std::string key = trim(flag.substr(0, eq));
    std::vector<std::string> values = splitList(flag.substr(eq + 1));
    if (key.empty() || values.empty())
        HOLDCSIM_PANIC("bad sweep flag '", flag,
                       "': expected key=a,b,c");
    add(key, std::move(values));
    return key;
}

SweepSpec
SweepSpec::fromConfig(const Config &cfg)
{
    SweepSpec spec;
    const std::string prefix = "sweep.";
    for (const std::string &key : cfg.keys()) {
        if (key.rfind(prefix, 0) != 0)
            continue;
        std::string target = key.substr(prefix.size());
        spec.add(target, splitList(cfg.getString(key)));
    }
    return spec;
}

std::size_t
SweepSpec::numPoints() const
{
    std::size_t n = 1;
    for (const auto &vals : _values)
        n *= vals.size();
    return n;
}

SweepPoint
SweepSpec::point(std::size_t i) const
{
    if (i >= numPoints())
        HOLDCSIM_PANIC("sweep point ", i, " out of range");
    SweepPoint p;
    // Odometer order: the last declared key varies fastest.
    std::size_t rest = i;
    for (std::size_t k = _keys.size(); k-- > 0;) {
        std::size_t width = _values[k].size();
        std::size_t pick = rest % width;
        rest /= width;
        p.assignments.emplace_back(_keys[k], _values[k][pick]);
    }
    std::reverse(p.assignments.begin(), p.assignments.end());
    return p;
}

void
SweepSpec::apply(Config &cfg, std::size_t i) const
{
    for (const auto &[key, value] : point(i).assignments)
        cfg.set(key, value);
}

} // namespace holdcsim
