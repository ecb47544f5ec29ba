#include "fault_schedule.hh"

#include <algorithm>
#include <sstream>

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
    std::ostringstream os;
    writeReproFile(os, *this, {});
    return os.str();
}

std::uint64_t
FaultSchedule::hash() const
{
    return fnv1a64(canonicalText());
}

void
writeReproFile(std::ostream &os, const FaultSchedule &schedule,
               const std::vector<std::string> &header_lines)
{
    FaultSchedule sorted = schedule;
    sorted.canonicalize();
    writeFaultTrace(os, sorted.faults, header_lines);
}

} // namespace holdcsim::mc
