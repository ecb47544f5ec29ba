#include "journal.hh"

#include <cstdlib>

#include "aggregate.hh"
#include "sim/logging.hh"

namespace holdcsim {

namespace {

/** JSON string escape (quote, backslash, control characters). */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Read the quoted string starting at @p pos (which must point at the
 * opening quote) into @p out, unescaping what escapeJson() emits.
 * @return the index one past the closing quote, or npos on a torn
 *         or malformed literal.
 */
std::size_t
readString(const std::string &line, std::size_t pos, std::string &out)
{
    if (pos >= line.size() || line[pos] != '"')
        return std::string::npos;
    out.clear();
    for (std::size_t i = pos + 1; i < line.size(); ++i) {
        char c = line[i];
        if (c == '"')
            return i + 1;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i >= line.size())
            return std::string::npos;
        switch (line[i]) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'u': {
            if (i + 4 >= line.size())
                return std::string::npos;
            out += static_cast<char>(
                std::strtoul(line.substr(i + 1, 4).c_str(), nullptr,
                             16));
            i += 4;
            break;
          }
          default:
            return std::string::npos;
        }
    }
    return std::string::npos; // no closing quote: torn line
}

/** Locate the value position of `"key":` in @p line (npos if absent). */
std::size_t
findValue(const std::string &line, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return pos;
    return pos + needle.size();
}

bool
parseString(const std::string &line, const std::string &key,
            std::string &out)
{
    std::size_t pos = findValue(line, key);
    if (pos == std::string::npos)
        return false;
    return readString(line, pos, out) != std::string::npos;
}

bool
parseUint(const std::string &line, const std::string &key,
          std::uint64_t &out)
{
    std::size_t pos = findValue(line, key);
    if (pos == std::string::npos)
        return false;
    const char *start = line.c_str() + pos;
    char *end = nullptr;
    out = std::strtoull(start, &end, 10);
    return end != start;
}

/** Parse the `"metrics":[["name","value"],...]` array. */
bool
parseMetrics(const std::string &line, MetricRow &out)
{
    std::size_t pos = findValue(line, "metrics");
    if (pos == std::string::npos || pos >= line.size() ||
        line[pos] != '[')
        return false;
    ++pos;
    out.clear();
    if (pos < line.size() && line[pos] == ']')
        return true; // empty metric row
    for (;;) {
        if (pos >= line.size() || line[pos] != '[')
            return false;
        ++pos;
        std::string name, value;
        pos = readString(line, pos, name);
        if (pos == std::string::npos || pos >= line.size() ||
            line[pos] != ',')
            return false;
        pos = readString(line, pos + 1, value);
        if (pos == std::string::npos || pos >= line.size() ||
            line[pos] != ']')
            return false;
        ++pos;
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str())
            return false;
        out.emplace_back(std::move(name), v);
        if (pos < line.size() && line[pos] == ',') {
            ++pos;
            continue;
        }
        return pos < line.size() && line[pos] == ']';
    }
}

std::string
hashHex(std::uint64_t h)
{
    static const char hex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[i] = hex[h & 0xf];
        h >>= 4;
    }
    return out;
}

} // namespace

CampaignJournal::CampaignJournal(const std::string &path,
                                 std::uint64_t config_hash,
                                 bool resume)
    : _path(path), _configHash(config_hash)
{
    if (resume)
        load();
    _out.open(_path, resume ? std::ios::app : std::ios::trunc);
    if (!_out)
        fatal("cannot open campaign journal '", _path,
              "' for writing");
}

void
CampaignJournal::load()
{
    std::ifstream in(_path);
    if (!in)
        return; // nothing to resume from: a fresh campaign
    std::string line;
    std::size_t lineno = 0;
    std::size_t foreign = 0;
    std::size_t torn = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string type, config;
        std::uint64_t point = 0, replica = 0, seed = 0;
        bool shape_ok = parseString(line, "type", type) &&
                        parseString(line, "config", config) &&
                        parseUint(line, "point", point) &&
                        parseUint(line, "replica", replica) &&
                        parseUint(line, "seed", seed) &&
                        line.back() == '}';
        if (!shape_ok) {
            // The torn-write case (crash mid-append): skip, but say
            // so -- silently eating a mid-file line would hide
            // corruption.
            ++torn;
            warn("campaign journal '", _path, "' line ", lineno,
                 ": unparseable record skipped");
            continue;
        }
        if (config != hashHex(_configHash)) {
            ++foreign;
            continue;
        }
        CellKey key{static_cast<std::size_t>(point),
                    static_cast<std::size_t>(replica)};
        if (type == "result") {
            ReplicaRecord rec;
            rec.point = key.first;
            rec.replica = key.second;
            rec.seed = seed;
            if (!parseMetrics(line, rec.metrics)) {
                warn("campaign journal '", _path, "' line ", lineno,
                     ": bad metrics array skipped");
                continue;
            }
            _results[key] = std::move(rec);
            ++_loaded;
        } else if (type == "quarantine") {
            QuarantineRecord q;
            q.point = key.first;
            q.replica = key.second;
            q.seed = seed;
            parseString(line, "error", q.error);
            _quarantined[key] = std::move(q);
            ++_loaded;
        } else {
            warn("campaign journal '", _path, "' line ", lineno,
                 ": unknown record type '", type, "' skipped");
        }
    }
    if (foreign > 0)
        warn("campaign journal '", _path, "': ignored ", foreign,
             " record(s) from a different campaign configuration");
    (void)torn;
}

bool
CampaignJournal::hasResult(std::size_t point, std::size_t replica) const
{
    return _results.count(CellKey{point, replica}) != 0;
}

const ReplicaRecord &
CampaignJournal::result(std::size_t point, std::size_t replica) const
{
    return _results.at(CellKey{point, replica});
}

bool
CampaignJournal::isQuarantined(std::size_t point,
                               std::size_t replica) const
{
    return _quarantined.count(CellKey{point, replica}) != 0;
}

void
CampaignJournal::appendResult(const ReplicaRecord &rec)
{
    _out << "{\"type\":\"result\",\"config\":\""
         << hashHex(_configHash) << "\",\"point\":" << rec.point
         << ",\"replica\":" << rec.replica << ",\"seed\":" << rec.seed
         << ",\"metrics\":[";
    bool first = true;
    for (const auto &[name, value] : rec.metrics) {
        if (!first)
            _out << ',';
        first = false;
        // Values ride as shortest-round-trip strings: the double
        // parsed back on resume is bit-identical, which is what
        // makes the resumed CSV byte-identical.
        _out << "[\"" << escapeJson(name) << "\",\""
             << formatMetricValue(value) << "\"]";
    }
    _out << "]}\n";
    _out.flush();
    _results[CellKey{rec.point, rec.replica}] = rec;
}

void
CampaignJournal::appendQuarantine(const QuarantineRecord &rec)
{
    _out << "{\"type\":\"quarantine\",\"config\":\""
         << hashHex(_configHash) << "\",\"point\":" << rec.point
         << ",\"replica\":" << rec.replica << ",\"seed\":" << rec.seed
         << ",\"error\":\"" << escapeJson(rec.error) << "\"}\n";
    _out.flush();
    _quarantined[CellKey{rec.point, rec.replica}] = rec;
}

std::vector<QuarantineRecord>
CampaignJournal::quarantines() const
{
    std::vector<QuarantineRecord> out;
    out.reserve(_quarantined.size());
    for (const auto &[key, rec] : _quarantined)
        out.push_back(rec);
    return out;
}

} // namespace holdcsim
