#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
percentile(std::vector<double> values, double p)
{
    const size_t n = values.size();
    if (n == 0 || p <= 0.0 || p >= 100.0)
        return std::nullopt;
    // Nearest rank: the smallest value with at least p% of samples at
    // or below it.
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0 || n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
highestReportablePercentile(size_t count)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const auto rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(count)));
        if (rank > 0 && count - rank >= kMinBeyond)
            return p;
    }
    return 0.0;
}

std::optional<double>
tailMean(std::vector<double> values, double p)
{
    const size_t n = values.size();
    if (n == 0 || p <= 0.0 || p >= 100.0)
        return std::nullopt;
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(values.begin(), values.begin() + rank, values.end());
    double sum = 0.0;
    for (size_t i = rank; i < n; ++i)
        sum += values[i];
    return sum / static_cast<double>(n - rank);
}

namespace {

using Statistic =
    std::optional<double> (*)(std::vector<double> values, double p);

double
windowed(const std::vector<double> &values, double p, Statistic stat)
{
    constexpr size_t kWindow = 2000;
    const size_t windows = values.size() / kWindow;
    if (windows >= 2) {
        std::vector<double> perWindow;
        for (size_t w = 0; w < windows; ++w) {
            const auto begin = values.begin() + w * values.size() / windows;
            const auto end =
                values.begin() + (w + 1) * values.size() / windows;
            if (const auto v = stat({begin, end}, p))
                perWindow.push_back(*v);
        }
        if (perWindow.size() == windows)
            return median(perWindow);
    }
    if (const auto v = stat(values, p))
        return *v;
    const double q = highestReportablePercentile(values.size());
    if (q > 0.0)
        return *stat(values, q);
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

} // namespace

double
windowedPercentile(const std::vector<double> &values, double p)
{
    return windowed(values, p, percentile);
}

double
windowedTailMean(const std::vector<double> &values, double p)
{
    return windowed(values, p, tailMean);
}

std::string
describeTiming(const std::vector<double> &valuesMs)
{
    std::ostringstream out;
    out << "median " << median(valuesMs) << " ms";
    const double p = highestReportablePercentile(valuesMs.size());
    if (p > 0.0)
        out << ", p" << p << " " << *percentile(valuesMs, p) << " ms";
    out << " (n=" << valuesMs.size() << ")";
    return out.str();
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace perfbench
