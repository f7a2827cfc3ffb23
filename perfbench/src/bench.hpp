#pragma once

// Shared vocabulary of the benchmark: run options, the result every
// workload fills, the metric tables, and the layer probe the traced runs
// share.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "artemis/common/json.hpp"
#include "artemis/driver/context.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tuner and sim parallelism: the processors this process may use.
  int jobs = 1;
  /// Where traces and scratch stores go (inside the checkout).
  std::string out_dir = ".bench_out";
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics every untraced run prints, in order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics every traced run prints, in order. A metric the
/// workload does not exercise reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// What one workload run produced.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  std::map<std::string, double> values;  ///< metric name -> value
  artemis::Json detail = artemis::Json::object();

  void fail(const std::string& why);
  void set(const std::string& name, double value) { values[name] = value; }
};

/// Seconds on the steady clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Samples of the workload's items (programs, kernels or request
/// classes) and the end-to-end figures derived from them.
using ItemSamples = std::map<std::string, std::vector<double>>;

/// Measures items until each has one sample and `seconds` have passed.
/// The first pass follows `order`; after it, the item with the least time
/// spent so far goes next, so cheap items collect more samples and their
/// medians steady. `measure` returns a latency in seconds, or a negative
/// value when the item failed (no sample).
ItemSamples sample_items(const std::vector<std::string>& names,
                         const std::vector<std::size_t>& order, double seconds,
                         const std::function<double(std::size_t)>& measure);

/// Set-up repetitions spread over the run: the short set-ups of
/// tune_suite and sim_run run back to back would all land in one
/// processor state (a core shared with a busy neighbour runs about 1.5x
/// slower for seconds at a time), so the workloads time one throwaway
/// set-up after each measured item and report the mean as setup_s.
template <typename Setup>
double timed_setup_s(Setup&& setup) {
  const double t0 = now_s();
  setup();
  return now_s() - t0;
}

/// suite_s (sum of item medians, seconds) and fast/mid/slow_third_ms: with
/// the items sorted by median, the mean median of the cheapest, the middle
/// and the costliest ceil(n/3) items (the groups overlap when 3 does not
/// divide n). Latencies are in seconds.
void set_item_metrics(Result& r, const ItemSamples& items);

/// The host block: CPU, processors, affinity, LLC, native tier, compiler,
/// build type and source revision.
artemis::Json host_block(int jobs);

/// Last-level cache size in bytes (0 if the host does not say).
std::int64_t llc_bytes();

/// Bytes of every array a program declares (8-byte elements).
std::int64_t working_set_bytes(const artemis::ir::Program& prog);

/// Layer probe shared by the traced runs: times dsl::parse and
/// ArtemisContext::compile on each source (dsl, ir), then hands
/// autotune::hierarchical_tune a PlanFactory that times every
/// codegen::build_plan call and the gpumodel evaluate / register
/// estimate of each plan it builds (codegen, gpumodel). The tunes run at
/// the context's jobs, as the workload's own tunes do.
void layer_probe(const std::vector<std::string>& sources,
                 artemis::driver::ArtemisContext& ctx, Result& r);

/// The library's telemetry counters and spans (tuner counts, stage
/// times, driver self time, profile time) reduced into per-layer metrics,
/// plus each layer's self time and the unattributed share. Writes the
/// trace to `path` as Chrome trace-event JSON.
void collect_trace(Result& r, const std::string& path);

/// Program names of the tune_suite workload (Table I order, then
/// diffuse) and the kernels of sim_run; the per-layer table has a row
/// per program and per kernel.
std::vector<std::string> tune_suite_names();
struct SimKernel {
  std::string name;
  std::int64_t extent = 0;
  int t = -1;  ///< iterate count; -1 = the kernel's own (spatial)
};
const std::vector<SimKernel>& sim_run_kernels();

/// Workload entry points.
Result run_tune_suite(const Options& opts);
Result run_sim_run(const Options& opts);
Result run_serve_mix(const Options& opts);

}  // namespace perfbench
