#pragma once

// Seeded inputs. Everything a workload feeds the program is drawn here
// from the --seed argument, so the same seed replays the same requests.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A seeded permutation of 0..n-1 (the order a suite is visited in).
std::vector<std::size_t> seeded_order(std::uint64_t seed, std::size_t n);

/// serve_mix fast-lane request kinds: a tune of a program already in the
/// store, a compile, and a functional run.
enum class FastKind { Hit, Compile, Run };

struct FastRequest {
  double due_s = 0;  ///< offset from the start of the mix
  FastKind kind = FastKind::Hit;
  int program = 0;   ///< hot-program index (Hit and Compile)
};

/// The open-loop fast lane over [0, seconds): three independent Poisson
/// streams (hits at 100/s, compiles at 50/s, runs at 10/s) merged in due
/// order. Hit and Compile requests pick one of `hot_programs` uniformly.
std::vector<FastRequest> fast_lane_schedule(std::uint64_t seed,
                                            double seconds,
                                            int hot_programs);

/// One program for the cold lane: a paper kernel at an extent no other
/// cold program (and no hot program) of the same mix uses.
struct ColdProgram {
  std::string kernel;
  std::int64_t extent = 0;
};

/// Extent used by the hot (pre-seeded) programs; cold extents avoid it.
constexpr std::int64_t kHotExtent = 64;

/// `count` distinct cold programs, alternating 7pt-smoother and
/// helmholtz, with seeded extents drawn without replacement from
/// [40, 200] minus kHotExtent (at most 160 programs).
std::vector<ColdProgram> cold_programs(std::uint64_t seed, int count);

}  // namespace perfbench
