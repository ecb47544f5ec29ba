/**
 * @file
 * Cross-replica result aggregation for parameter sweeps.
 *
 * A ResultTable collects (point, replica, metric, value) rows --
 * the long format every plotting stack ingests directly -- and
 * summarizes each (point, metric) series as mean / sample stddev /
 * 95% confidence half-width (Student t for small replica counts).
 */

#ifndef HOLDCSIM_EXP_AGGREGATE_HH
#define HOLDCSIM_EXP_AGGREGATE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace holdcsim {

/** Sample statistics of one metric across replicas. */
struct Summary {
    std::uint64_t n = 0;
    double mean = 0.0;
    /** Sample (n-1) standard deviation; 0 for n < 2. */
    double stddev = 0.0;
    /** 95% confidence half-width (mean +/- ci95); 0 for n < 2. */
    double ci95 = 0.0;
};

/** Summarize @p values (mean, sample stddev, 95% CI half-width). */
Summary summarize(const std::vector<double> &values);

/**
 * Shortest decimal representation of @p v that parses back to
 * exactly @p v. Used for every value the result CSVs and the
 * campaign journal emit, so re-serializing a parsed-back value is
 * byte-identical (the resume-equivalence guarantee rests on it).
 */
std::string formatMetricValue(double v);

/** Long-format result store for (sweep point, replica) runs. */
class ResultTable
{
  public:
    /** Human-readable label for sweep point @p point. */
    void setPointLabel(std::size_t point, std::string label);

    /** Record one metric value of one replica run. */
    void add(std::size_t point, std::size_t replica,
             const std::string &metric, double value);

    /** All values of @p metric at @p point, in replica order. */
    std::vector<double> values(std::size_t point,
                               const std::string &metric) const;

    /** Summary of @p metric across the replicas of @p point. */
    Summary summary(std::size_t point,
                    const std::string &metric) const;

    /** Metric names in first-recorded order. */
    const std::vector<std::string> &metrics() const
    {
        return _metricOrder;
    }

    /** Number of distinct sweep points recorded. */
    std::size_t numPoints() const;

    /** Label of @p point ("point<N>" when unset). */
    std::string pointLabel(std::size_t point) const;

    /**
     * Write every raw row as long-format CSV:
     * point,label,replica,metric,value. Full precision, so equal
     * runs produce byte-equal files.
     */
    void writeCsv(std::ostream &os) const;

  private:
    struct Row {
        std::size_t point;
        std::size_t replica;
        std::string metric;
        double value;
    };

    std::vector<Row> _rows;
    std::vector<std::string> _metricOrder;
    std::map<std::size_t, std::string> _labels;
};

} // namespace holdcsim

#endif // HOLDCSIM_EXP_AGGREGATE_HH
