#ifndef UOLAP_HOSTBENCH_STATS_H_
#define UOLAP_HOSTBENCH_STATS_H_

#include <vector>

namespace uolap::hostbench {

/// Linear-interpolated percentile (`p` in [0, 100]) of `values`, the
/// definition numpy calls "linear": rank p/100 * (n - 1) between the two
/// nearest order statistics. Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
double Median(const std::vector<double>& values);

/// Geometric mean of positive `values` (0 for an empty input).
double GeoMean(const std::vector<double>& values);

}  // namespace uolap::hostbench

#endif  // UOLAP_HOSTBENCH_STATS_H_
