#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles, method="exclusive", n=4: m = len + 1, and cut
  // point i interpolates between data[j-1] and data[j] with j = i*m // 4.
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

double iqr_share(const std::vector<double>& v) {
  const double med = median(v);
  if (med == 0) return 0;
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / std::fabs(med);
}

namespace {

/// 1-based nearest rank of percentile p among n samples. The tolerance
/// keeps decimal percentiles such as 99.9 from rounding up a whole rank.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1 ? 1 : std::min(n, static_cast<std::size_t>(rank));
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n) {
  static constexpr double kTails[] = {99.99, 99.9, 99, 90, 50};
  for (const double p : kTails) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
