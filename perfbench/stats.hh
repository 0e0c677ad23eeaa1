/**
 * @file
 * Summary statistics for the benchmark: medians, nearest-rank
 * percentiles under the "at least ten samples beyond it" rule, and
 * geometric means.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a percentile before it is reported. */
inline constexpr size_t kMinBeyond = 10;

/** Median of `values` (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile `p` (0 < p < 100) of `values`, or nothing
 * when fewer than kMinBeyond samples lie above its rank: a p99 needs
 * at least 1000 samples, a p95 at least 200.
 */
std::optional<double> percentile(std::vector<double> values, double p);

/**
 * The highest percentile among {99.9, 99, 95, 90, 75, 50} that the
 * rule above admits for `count` samples (0 when none does).
 */
double highestReportablePercentile(size_t count);

/**
 * Mean of the samples beyond the nearest-rank percentile `p` (the
 * slowest 100 - p percent), or nothing when fewer than kMinBeyond
 * samples lie beyond it. Unlike a single order statistic it does not
 * jump when the rank crosses a gap between clusters of latencies.
 */
std::optional<double> tailMean(std::vector<double> values, double p);

/**
 * Statistics that one stall cannot move: samples (in time order) are
 * cut into windows of at least 2000 samples, the statistic is taken
 * per window, and the median over windows is returned. With fewer than
 * two windows it is taken over all samples; when the rule admits no
 * `p`, the highest percentile it admits is used (the maximum if none).
 */
double windowedPercentile(const std::vector<double> &values, double p);
double windowedTailMean(const std::vector<double> &values, double p);

/**
 * One-line timing summary in the benchmark's reporting convention:
 * "median X ms, pNN Y ms (n=N)".
 */
std::string describeTiming(const std::vector<double> &valuesMs);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &values);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
