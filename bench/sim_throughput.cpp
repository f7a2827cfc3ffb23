// Simulator throughput: tree-walk vs compiled bytecode vs native.
//
// Measures stencil applications per second (points/sec) of the functional
// executor on paper kernels under four configurations:
//
//   treewalk   -- the per-point recursive interpreter (SimEngine::TreeWalk),
//                 one worker;
//   bytecode   -- the slot-resolved compiled engine (SimEngine::Bytecode),
//                 one worker;
//   native     -- the host-compiled interior engine (SimEngine::Native,
//                 strict mode), one worker;
//   parallel   -- the native engine with the work-stealing block sweep.
//
// Beside them, `reference` times run_program_reference (the untiled
// oracle every functional run is checked against: the bytecode engine's
// row-batched interior, parallel over z) on the same points.
//
// Each configuration runs once untimed first (the native engine compiles
// its stages there), then --reps timed runs; the report keeps the best,
// the median and the interquartile range of the throughput.
//
// All of them produce bit-identical grids (cross-checked here); the
// differential test suite (bytecode_sim_test, native_engine_test) proves
// the stronger per-counter/per-trace equivalences. Results are written to
// a machine-readable JSON report (--out, default BENCH_sim.json) with a
// `host` block (hardware threads, native tier, build type), consumed by
// the CI smoke check, which asserts median compiled >= tree-walk and
// median native >= bytecode on every kernel.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/json.hpp"
#include "artemis/common/parallel.hpp"
#include "artemis/common/str.hpp"
#include "artemis/common/table.hpp"
#include "artemis/gpumodel/device.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/benchmarks.hpp"

using namespace artemis;

namespace {

struct RunOutcome {
  sim::GridSet gs;
  std::int64_t points = 0;  ///< computed stencil applications
  double seconds = 0;
};

/// Execute every plan of the program once with the given engine options.
RunOutcome run_once(const ir::Program& prog,
                    const std::vector<codegen::KernelPlan>& plans,
                    std::uint64_t seed, const sim::ExecOptions& opts) {
  RunOutcome r{sim::GridSet::from_program(prog, seed), 0, 0};
  std::size_t next_plan = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& step : ir::flatten_steps(prog)) {
    if (step.kind == ir::ExecStep::Kind::Swap) {
      r.gs.swap(step.swap.a, step.swap.b);
      continue;
    }
    const auto c = sim::execute_plan(plans.at(next_plan++), r.gs, opts);
    r.points += c.computed_points;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return r;
}

/// Throughput samples of one configuration, points per second.
struct Samples {
  std::vector<double> pps;

  /// Linear-interpolated quantile, q in [0, 1].
  double quantile(double q) const {
    std::vector<double> v = pps;
    std::sort(v.begin(), v.end());
    const double at = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
  }
  double best() const { return *std::max_element(pps.begin(), pps.end()); }
  double median() const { return quantile(0.5); }
  double iqr() const { return quantile(0.75) - quantile(0.25); }
};

/// The reference interpreter over the whole program, best of `reps`.
RunOutcome best_reference(const ir::Program& prog, std::uint64_t seed,
                          int reps) {
  RunOutcome best{sim::GridSet{}, 0, 0};
  for (int r = 0; r < reps; ++r) {
    sim::GridSet gs = sim::GridSet::from_program(prog, seed);
    const auto t0 = std::chrono::steady_clock::now();
    sim::run_program_reference(prog, gs);
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (r == 0 || dt < best.seconds) {
      best.seconds = dt;
      best.gs = std::move(gs);
    }
  }
  return best;
}

bool outputs_identical(const ir::Program& prog, const sim::GridSet& a,
                       const sim::GridSet& b) {
  for (const auto& out : prog.copyout) {
    const Grid3D& ga = a.grid(out);
    const Grid3D& gb = b.grid(out);
    if (std::memcmp(ga.raw().data(), gb.raw().data(),
                    ga.raw().size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::int64_t flag_int(int argc, char** argv, const char* name,
                      std::int64_t dflt) {
  const std::string prefix = str_cat("--", name, "=");
  for (int i = 1; i < argc; ++i) {
    if (starts_with(argv[i], prefix)) {
      return std::stoll(std::string(argv[i]).substr(prefix.size()));
    }
  }
  return dflt;
}

std::string flag_str(int argc, char** argv, const char* name,
                     const std::string& dflt) {
  const std::string prefix = str_cat("--", name, "=");
  for (int i = 1; i < argc; ++i) {
    if (starts_with(argv[i], prefix)) {
      return std::string(argv[i]).substr(prefix.size());
    }
  }
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t extent = flag_int(argc, argv, "extent", 64);
  const int reps =
      std::max(1, static_cast<int>(flag_int(argc, argv, "reps", 3)));
  const int jobs = static_cast<int>(flag_int(argc, argv, "jobs", 0));
  const std::string out_path = flag_str(argc, argv, "out", "BENCH_sim.json");
  const std::string kernels =
      flag_str(argc, argv, "kernels", "7pt-smoother,helmholtz,hypterm");

  const auto dev = gpumodel::p100();
  const int par_jobs = jobs > 0 ? jobs : default_jobs();

  TablePrinter table({"kernel", "points", "treewalk pts/s", "bytecode pts/s",
                      "native pts/s", "parallel pts/s", "reference pts/s",
                      "compiled x", "native x", "parallel x", "identical"});
  Json report = Json::object();
  report.set("extent", Json(extent));
  report.set("reps", Json(reps));
  report.set("parallel_jobs", Json(par_jobs));
  report.set("native_tier",
             Json(sim::native::tier_name(sim::native::active_tier())));
  Json host = Json::object();
  host.set("nproc",
           Json(static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  host.set("native_tier",
           Json(sim::native::tier_name(sim::native::active_tier())));
  host.set("build_type", Json(ARTEMIS_BUILD_TYPE));
  report.set("host", std::move(host));
  Json rows = Json::array();
  bool all_identical = true;

  for (const auto& name : split(kernels, ',')) {
    // One time step keeps iterative kernels comparable to spatial ones.
    const ir::Program prog = stencils::benchmark_program(name, extent, 1);
    // Pin arrays to global memory: the wide SW4/CNS kernels exceed the
    // device's shared-memory budget under the default config, and the
    // functional engines are what this harness measures anyway.
    codegen::BuildOptions gopts;
    gopts.use_shared_memory = false;
    std::vector<codegen::KernelPlan> plans;
    for (const auto& step : ir::flatten_steps(prog)) {
      if (step.kind != ir::ExecStep::Kind::Stencil) continue;
      std::vector<std::string> args;
      for (const auto& p : step.stencil.def->params) {
        args.push_back(step.stencil.binding.at(p));
      }
      plans.push_back(codegen::build_plan_for_call(
          prog, ir::StencilCall{step.stencil.name, std::move(args)},
          codegen::KernelConfig{}, dev, gopts));
    }

    sim::ExecOptions treewalk;
    treewalk.engine = sim::SimEngine::TreeWalk;
    treewalk.jobs = 1;
    sim::ExecOptions bytecode;
    bytecode.engine = sim::SimEngine::Bytecode;
    bytecode.jobs = 1;
    sim::ExecOptions native = bytecode;
    native.engine = sim::SimEngine::Native;
    sim::ExecOptions parallel = native;
    parallel.jobs = par_jobs;

    // One untimed run, then `reps` timed ones; the outcome carries the
    // last run's grids.
    const auto measure = [&](const sim::ExecOptions& opts, Samples& s) {
      RunOutcome o = run_once(prog, plans, 42, opts);
      for (int r = 0; r < reps; ++r) {
        o = run_once(prog, plans, 42, opts);
        s.pps.push_back(o.points / o.seconds);
      }
      return o;
    };

    Samples tw_s, bc_s, nat_s, par_s;
    const RunOutcome tw = measure(treewalk, tw_s);
    const RunOutcome bc = measure(bytecode, bc_s);
    const RunOutcome nat = measure(native, nat_s);
    const RunOutcome par = measure(parallel, par_s);
    const double tw_pps = tw_s.best();
    const double bc_pps = bc_s.best();
    const double nat_pps = nat_s.best();
    const double par_pps = par_s.best();
    const RunOutcome ref = best_reference(prog, 42, reps);
    const double ref_pps = tw.points / ref.seconds;
    const bool identical = outputs_identical(prog, tw.gs, bc.gs) &&
                           outputs_identical(prog, tw.gs, nat.gs) &&
                           outputs_identical(prog, tw.gs, par.gs);
    const bool ref_identical = outputs_identical(prog, tw.gs, ref.gs);
    all_identical = all_identical && identical && ref_identical;

    table.add_row({name, std::to_string(tw.points),
                   format_double(tw_pps, 4), format_double(bc_pps, 4),
                   format_double(nat_pps, 4), format_double(par_pps, 4),
                   format_double(ref_pps, 4),
                   format_double(bc_pps / tw_pps, 3),
                   format_double(nat_pps / bc_pps, 3),
                   format_double(par_pps / tw_pps, 3),
                   identical && ref_identical ? "yes" : "NO"});

    Json row = Json::object();
    row.set("kernel", Json(name));
    row.set("points", Json(tw.points));
    row.set("engine", Json("native"));
    row.set("treewalk_pps", Json(tw_pps));
    row.set("bytecode_pps", Json(bc_pps));
    row.set("native_pps", Json(nat_pps));
    row.set("parallel_pps", Json(par_pps));
    row.set("reference_pps", Json(ref_pps));
    const std::pair<const char*, const Samples*> spread[] = {
        {"treewalk", &tw_s}, {"bytecode", &bc_s}, {"native", &nat_s},
        {"parallel", &par_s}};
    for (const auto& [ename, smp] : spread) {
      row.set(str_cat(ename, "_pps_median"), Json(smp->median()));
      row.set(str_cat(ename, "_pps_iqr"), Json(smp->iqr()));
    }
    row.set("speedup_compiled", Json(bc_pps / tw_pps));
    row.set("speedup_native", Json(nat_pps / bc_pps));
    row.set("speedup_parallel", Json(par_pps / tw_pps));
    row.set("speedup_compiled_median",
            Json(bc_s.median() / tw_s.median()));
    row.set("speedup_native_median", Json(nat_s.median() / bc_s.median()));
    row.set("outputs_identical", Json(identical));
    row.set("reference_identical", Json(ref_identical));
    rows.push_back(std::move(row));
  }
  report.set("kernels", std::move(rows));

  std::ofstream(out_path) << report.dump(2) << "\n";
  std::printf("Simulator throughput (extent %lld^3, best of %d after one "
              "untimed run, %d jobs)\n\n%s\n",
              static_cast<long long>(extent), reps, par_jobs,
              table.to_string().c_str());
  std::printf("Report written to %s\n", out_path.c_str());
  if (!all_identical) {
    std::printf("ERROR: engines disagree on some kernel outputs\n");
    return 1;
  }
  return 0;
}
