#include "fault_schedule.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>
#include <tuple>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace holdcsim::mc {

void
FaultSchedule::canonicalize()
{
    std::sort(faults.begin(), faults.end(),
              [](const ScheduledFault &a, const ScheduledFault &b) {
                  if (a.record.downAt != b.record.downAt)
                      return a.record.downAt < b.record.downAt;
                  if (a.target < b.target || b.target < a.target)
                      return a.target < b.target;
                  return a.record.upAt < b.record.upAt;
              });
}

std::string
FaultSchedule::canonicalText() const
{
    FaultSchedule sorted = *this;
    sorted.canonicalize();
    std::string text;
    for (const ScheduledFault &f : sorted.faults) {
        text += formatFaultTraceLine(f);
        text += '\n';
    }
    return text;
}

std::uint64_t
FaultSchedule::hash() const
{
    return fnv1a64(canonicalText());
}

FaultSchedule
FaultSchedule::fromTraceText(const std::string &text,
                             const std::string &where)
{
    FaultSchedule out;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        ScheduledFault fault;
        if (parseFaultTraceLine(
                line, where + ":" + std::to_string(lineno), fault))
            out.faults.push_back(fault);
    }
    return out;
}

FaultSchedule
FaultSchedule::fromTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault schedule '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromTraceText(text.str(), path);
}

void
writeReproFile(std::ostream &os, const FaultSchedule &schedule,
               const std::vector<std::string> &header_lines)
{
    for (const std::string &line : header_lines)
        os << "# " << line << '\n';
    os << schedule.canonicalText();
}

} // namespace holdcsim::mc
