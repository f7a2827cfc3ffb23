// perfbench — the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload tune_suite|sim_run|serve_mix|all --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one row per metric, a `detail:` line with the host block and the
// workload's own tables, and as its last line the JSON result
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"
#include "artemis/telemetry/trace_sink.hpp"
#include "bench.hpp"

using artemis::Json;
using artemis::str_cat;
using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tune_suite|sim_run|serve_mix|all "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

Result run_workload(const Options& opts) {
  if (opts.workload == "tune_suite") return run_tune_suite(opts);
  if (opts.workload == "sim_run") return run_sim_run(opts);
  return run_serve_mix(opts);
}

/// Prints the workload's rows and returns its metrics object; missing or
/// non-finite metrics count as failures.
Json emit_rows(const std::string& workload, const Options& opts, Result& r) {
  const auto& specs = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  Json metrics = Json::object();
  for (const MetricSpec& m : specs) {
    auto it = r.values.find(m.name);
    double v = 0;
    if (it != r.values.end()) {
      v = it->second;
    } else if (!opts.trace) {
      r.fail(str_cat("metric ", m.name, " was not measured"));
    }
    if (!std::isfinite(v)) {
      r.fail(str_cat("metric ", m.name, " is not finite"));
      v = 0;
    }
    std::printf("%-10s %-40s %16.6f %s\n", workload.c_str(), m.name.c_str(),
                v, m.unit.c_str());
    Json entry = Json::object();
    entry.set("value", Json(v));
    entry.set("unit", Json(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (arg == "--workload") {
        opts.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(val);
        have_seconds = opts.seconds > 0;
      } else if (arg == "--trace") {
        opts.trace = std::stoi(val) != 0;
        have_trace = val == "0" || val == "1";
      } else if (arg == "--out-dir") {
        opts.out_dir = val;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return usage();
  }
  std::vector<std::string> workloads;
  if (opts.workload == "all") {
    workloads = {"tune_suite", "sim_run", "serve_mix"};
  } else if (opts.workload == "tune_suite" || opts.workload == "sim_run" ||
             opts.workload == "serve_mix") {
    workloads = {opts.workload};
  } else {
    return usage();
  }

  // nproc: the processors this process may run on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  opts.jobs = sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                  ? std::max(1, CPU_COUNT(&allowed))
                  : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  artemis::set_default_jobs(opts.jobs);
  std::filesystem::create_directories(opts.out_dir);

  Json all_metrics = Json::object();
  std::int64_t attempted = 0, failed = 0;
  Json detail = Json::object();
  detail.set("host", host_block(opts.jobs));
  detail.set("seed", Json(static_cast<std::int64_t>(opts.seed)));
  detail.set("seconds", Json(opts.seconds));
  detail.set("trace", Json(opts.trace));
  for (const auto& name : workloads) {
    Options o = opts;
    o.workload = name;
    Result r;
    try {
      r = run_workload(o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", name.c_str(),
                   e.what());
      return 1;
    }
    const Json metrics = emit_rows(name, o, r);
    for (const auto& [k, v] : metrics.members()) {
      all_metrics.set(workloads.size() == 1 ? k : str_cat(name, "/", k), v);
    }
    attempted += r.attempted;
    failed += r.failed;
    Json failures = Json::array();
    for (const auto& f : r.failures) failures.push_back(Json(f));
    r.detail.set("attempted", Json(r.attempted));
    r.detail.set("failed", Json(r.failed));
    r.detail.set("failures", std::move(failures));
    detail.set(name, std::move(r.detail));
  }
  const std::string detail_text = detail.dump();
  std::printf("detail: %s\n", detail_text.c_str());
  artemis::telemetry::write_file(
      str_cat(opts.out_dir, "/result-", opts.workload, "-", opts.seed,
              opts.trace ? "-trace" : "", ".json"),
      detail_text);

  Json out = Json::object();
  out.set("correct", Json(failed == 0 && attempted > 0));
  out.set("attempted", Json(std::max<std::int64_t>(attempted, 1)));
  out.set("failed", Json(failed));
  out.set("metrics", std::move(all_metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
