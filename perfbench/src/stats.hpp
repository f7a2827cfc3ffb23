#pragma once

// Summary statistics the benchmark reports. Kept free of any artemis
// dependency so the helper tests pin them down exactly.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Arithmetic mean of `v`; 0 for an empty sample.
double mean(const std::vector<double>& v);

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double median(std::vector<double> v);

/// First and third quartile as Python's statistics.quantiles(v, n=4)
/// computes them (the default "exclusive" method). Needs >= 2 samples;
/// a single sample yields {v[0], v[0]}, an empty one {0, 0}.
struct Quartiles {
  double q1 = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/// (q3 - q1) / median: the run-to-run spread the benchmark's bounds are
/// judged against. 0 when the median is 0.
double iqr_share(const std::vector<double>& v);

/// Nearest-rank percentile p (0 < p <= 100) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has at
/// least ten samples beyond it in a sample of `n`, so a reported tail is
/// never one or two outliers. Returns 0 when even the median has fewer
/// than ten samples beyond it.
double tail_percentile(std::size_t n);

/// Samples strictly beyond the nearest-rank percentile p in a sample of n.
std::size_t samples_beyond(std::size_t n, double p);

/// Geometric mean of strictly positive values; 0 if any value is not
/// positive or the sample is empty.
double geomean(const std::vector<double>& v);

}  // namespace perfbench
