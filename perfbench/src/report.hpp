/**
 * @file
 * Named metrics with units, collected by a run and printed as the
 * benchmark's result document.
 */

#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports: counts, metrics and free-form diagnostics. */
struct RunReport
{
    std::size_t attempted = 0;
    std::size_t failed = 0; //!< Error answers plus mismatches.
    std::vector<Metric> metrics;
    redqaoa::json::Value diagnostics = redqaoa::json::Value::object();

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
