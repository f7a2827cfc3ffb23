#include "schedule.hpp"

#include <algorithm>
#include <cmath>

#include "artemis/common/rng.hpp"

namespace perfbench {

namespace {

// Distinct streams per purpose, so adding a draw to one input never
// shifts another.
constexpr std::uint64_t kOrderStream = 0x6f72646572ull;
constexpr std::uint64_t kHitStream = 0x686974ull;
constexpr std::uint64_t kCompileStream = 0x636f6d70ull;
constexpr std::uint64_t kRunStream = 0x72756eull;
constexpr std::uint64_t kColdStream = 0x636f6c64ull;

// Fast-lane arrival rates, per second.
constexpr double kHitPerS = 100;
constexpr double kCompilePerS = 50;
constexpr double kRunPerS = 10;

void shuffle(artemis::Rng& rng, std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

void poisson_stream(std::uint64_t seed, double rate, double seconds,
                    FastKind kind, int hot_programs,
                    std::vector<FastRequest>& out) {
  artemis::Rng rng(seed);
  double t = 0;
  for (;;) {
    // 1 - uniform() lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    FastRequest req;
    req.due_s = t;
    req.kind = kind;
    req.program = static_cast<int>(rng.uniform_int(0, hot_programs - 1));
    out.push_back(req);
  }
}

}  // namespace

std::vector<std::size_t> seeded_order(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  artemis::Rng rng(seed ^ kOrderStream);
  shuffle(rng, order);
  return order;
}

std::vector<FastRequest> fast_lane_schedule(std::uint64_t seed,
                                            double seconds,
                                            int hot_programs) {
  std::vector<FastRequest> out;
  poisson_stream(seed ^ kHitStream, kHitPerS, seconds, FastKind::Hit,
                 hot_programs, out);
  poisson_stream(seed ^ kCompileStream, kCompilePerS, seconds,
                 FastKind::Compile, hot_programs, out);
  poisson_stream(seed ^ kRunStream, kRunPerS, seconds, FastKind::Run,
                 hot_programs, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const FastRequest& a, const FastRequest& b) {
                     return a.due_s < b.due_s;
                   });
  return out;
}

std::vector<ColdProgram> cold_programs(std::uint64_t seed, int count) {
  std::vector<std::size_t> extents;
  for (std::int64_t e = 40; e <= 200; ++e) {
    if (e != kHotExtent) extents.push_back(static_cast<std::size_t>(e));
  }
  artemis::Rng rng(seed ^ kColdStream);
  shuffle(rng, extents);
  const auto n = std::min(extents.size(), static_cast<std::size_t>(
                                              std::max(count, 0)));
  std::vector<ColdProgram> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({i % 2 == 0 ? "7pt-smoother" : "helmholtz",
                   static_cast<std::int64_t>(extents[i])});
  }
  return out;
}

}  // namespace perfbench
