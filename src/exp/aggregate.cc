#include "aggregate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace holdcsim {

namespace {

/**
 * Two-sided 97.5% Student t quantiles for df = 1..30; beyond that
 * the normal 1.96 is within half a percent.
 */
constexpr double t_table[] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
    2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
    2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
    2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
};

double
tQuantile975(std::uint64_t df)
{
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return t_table[df - 1];
    return 1.96;
}

} // namespace

std::string
formatMetricValue(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double back = 0.0;
    std::sscanf(buf, "%lg", &back);
    for (int prec = 1; prec <= 16; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        std::sscanf(probe, "%lg", &back);
        if (back == v)
            return probe;
    }
    return buf;
}

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    s.n = values.size();
    if (s.n == 0)
        return s;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    s.mean = sum / static_cast<double>(s.n);
    if (s.n < 2)
        return s;
    double m2 = 0.0;
    for (double v : values)
        m2 += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(m2 / static_cast<double>(s.n - 1));
    s.ci95 = tQuantile975(s.n - 1) * s.stddev /
             std::sqrt(static_cast<double>(s.n));
    return s;
}

void
ResultTable::setPointLabel(std::size_t point, std::string label)
{
    _labels[point] = std::move(label);
}

void
ResultTable::add(std::size_t point, std::size_t replica,
                 const std::string &metric, double value)
{
    if (std::find(_metricOrder.begin(), _metricOrder.end(), metric) ==
        _metricOrder.end()) {
        _metricOrder.push_back(metric);
    }
    _rows.push_back(Row{point, replica, metric, value});
}

std::vector<double>
ResultTable::values(std::size_t point, const std::string &metric) const
{
    // Replica order == insertion order within a point: callers record
    // replicas in index order (the engine guarantees it).
    std::vector<double> out;
    for (const Row &r : _rows) {
        if (r.point == point && r.metric == metric)
            out.push_back(r.value);
    }
    return out;
}

Summary
ResultTable::summary(std::size_t point, const std::string &metric) const
{
    return summarize(values(point, metric));
}

std::size_t
ResultTable::numPoints() const
{
    std::size_t n = 0;
    for (const Row &r : _rows)
        n = std::max(n, r.point + 1);
    return n;
}

std::string
ResultTable::pointLabel(std::size_t point) const
{
    auto it = _labels.find(point);
    if (it != _labels.end())
        return it->second;
    return "point" + std::to_string(point);
}

void
ResultTable::writeCsv(std::ostream &os) const
{
    os << "point,label,replica,metric,value\n";
    for (const Row &r : _rows) {
        os << r.point << ',' << pointLabel(r.point) << ','
           << r.replica << ',' << r.metric << ','
           << formatMetricValue(r.value) << '\n';
    }
}

} // namespace holdcsim
