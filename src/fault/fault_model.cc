#include "fault_model.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace holdcsim {

std::string
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::server:   return "server";
      case FaultKind::swtch:    return "switch";
      case FaultKind::link:     return "link";
      case FaultKind::linecard: return "linecard";
    }
    HOLDCSIM_PANIC("unknown FaultKind");
}

std::string
toString(const FaultTarget &target)
{
    std::string s = toString(target.kind) + "." +
                    std::to_string(target.index);
    if (target.kind == FaultKind::linecard)
        s += "." + std::to_string(target.sub);
    return s;
}

std::string
formatFaultTraceLine(const ScheduledFault &fault)
{
    std::ostringstream os;
    os << toString(fault.target.kind) << ' ' << fault.target.index;
    if (fault.target.kind == FaultKind::linecard)
        os << ' ' << fault.target.sub;
    // Nine fractional digits = nanosecond resolution: the decimal is
    // an exact image of the tick count, so parse -> fromSeconds
    // reproduces it bit-for-bit (see fromSeconds' round-to-nearest).
    os << ' ' << std::fixed << std::setprecision(9)
       << toSeconds(fault.record.downAt) << ' '
       << toSeconds(fault.record.upAt);
    return os.str();
}

bool
parseFaultTraceLine(const std::string &line, const std::string &where,
                    ScheduledFault &out)
{
    std::string text = line;
    auto hash = text.find('#');
    if (hash != std::string::npos)
        text.erase(hash);
    std::istringstream ss(text);
    std::string kind_word;
    if (!(ss >> kind_word))
        return false; // blank line
    FaultTarget target;
    if (kind_word == "server") {
        target.kind = FaultKind::server;
    } else if (kind_word == "switch") {
        target.kind = FaultKind::swtch;
    } else if (kind_word == "link") {
        target.kind = FaultKind::link;
    } else if (kind_word == "linecard") {
        target.kind = FaultKind::linecard;
    } else {
        fatal(where, ": unknown fault kind '", kind_word, "'");
    }
    double down_s = 0.0, up_s = 0.0;
    bool ok;
    if (target.kind == FaultKind::linecard) {
        ok = static_cast<bool>(ss >> target.index >> target.sub >>
                               down_s >> up_s);
    } else {
        ok = static_cast<bool>(ss >> target.index >> down_s >> up_s);
    }
    if (!ok)
        fatal(where, ": malformed fault line");
    out.target = target;
    out.record.downAt = fromSeconds(down_s);
    out.record.upAt = fromSeconds(up_s);
    return true;
}

std::vector<ScheduledFault>
readFaultTrace(std::istream &in, const std::string &where)
{
    std::vector<ScheduledFault> faults;
    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
        ScheduledFault fault;
        if (parseFaultTraceLine(line, where + ":" + std::to_string(lineno),
                                fault))
            faults.push_back(fault);
    }
    return faults;
}

std::vector<ScheduledFault>
readFaultTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault trace '", path, "'");
    return readFaultTrace(in, path);
}

void
writeFaultTrace(std::ostream &os, const std::vector<ScheduledFault> &faults,
                const std::vector<std::string> &header_lines)
{
    for (const std::string &line : header_lines)
        os << "# " << line << '\n';
    for (const ScheduledFault &fault : faults)
        os << formatFaultTraceLine(fault) << '\n';
}

// -------------------------------------------------------- ScriptedFaultModel

ScriptedFaultModel::ScriptedFaultModel(std::vector<ScheduledFault> faults)
{
    for (const ScheduledFault &fault : faults) {
        if (fault.record.upAt <= fault.record.downAt)
            fatal("fault on ", toString(fault.target),
                  " repairs before (or as) it breaks");
        _episodes[fault.target].push_back(fault.record);
    }
    for (auto &[target, queue] : _episodes) {
        std::sort(queue.begin(), queue.end(),
                  [](const FaultRecord &a, const FaultRecord &b) {
                      return a.downAt < b.downAt;
                  });
        for (std::size_t i = 1; i < queue.size(); ++i) {
            if (queue[i].downAt < queue[i - 1].upAt)
                fatal("overlapping fault episodes for ", toString(target));
        }
    }
}

std::optional<FaultRecord>
ScriptedFaultModel::nextFault(const FaultTarget &target, Tick now)
{
    auto it = _episodes.find(target);
    if (it == _episodes.end() || it->second.empty())
        return std::nullopt;
    const FaultRecord rec = it->second.front();
    if (rec.downAt < now)
        fatal("fault on ", toString(target), " goes down at tick ",
              rec.downAt, " but is asked for at tick ", now,
              ": the schedule cannot replay as written");
    it->second.pop_front();
    return rec;
}

// ------------------------------------------------------ StochasticFaultModel

StochasticFaultModel::StochasticFaultModel(std::uint64_t seed,
                                           Tick mttf, Tick mttr,
                                           Distribution dist,
                                           double weibull_shape)
    : _seed(seed), _mttf(mttf), _mttr(mttr), _dist(dist),
      _weibullShape(weibull_shape)
{
    if (mttf == 0 || mttr == 0)
        fatal("stochastic fault model needs positive MTTF and MTTR");
    if (dist == Distribution::weibull && weibull_shape <= 0.0)
        fatal("weibull shape must be positive");
    // E[Weibull(k, lambda)] = lambda * Gamma(1 + 1/k); invert so the
    // configured MTTF is the distribution's mean regardless of shape.
    _weibullScale =
        dist == Distribution::weibull
            ? static_cast<double>(mttf) /
                  std::tgamma(1.0 + 1.0 / weibull_shape)
            : 0.0;
}

Rng &
StochasticFaultModel::rngFor(const FaultTarget &target)
{
    auto it = _rngs.find(target);
    if (it != _rngs.end())
        return it->second;
    // One named stream per component: draws stay identical when
    // other components are added or removed from the fault set.
    return _rngs.emplace(target, Rng(_seed, "fault." + toString(target)))
        .first->second;
}

std::optional<FaultRecord>
StochasticFaultModel::nextFault(const FaultTarget &target, Tick now)
{
    Rng &rng = rngFor(target);
    double ttf_ticks =
        _dist == Distribution::weibull
            ? rng.weibull(_weibullShape, _weibullScale)
            : rng.exponential(static_cast<double>(_mttf));
    double ttr_ticks = rng.exponential(static_cast<double>(_mttr));
    auto ttf = static_cast<Tick>(std::max(1.0, ttf_ticks));
    auto ttr = static_cast<Tick>(std::max(1.0, ttr_ticks));
    FaultRecord rec;
    rec.downAt = now + ttf;
    rec.upAt = rec.downAt + ttr;
    return rec;
}

} // namespace holdcsim
