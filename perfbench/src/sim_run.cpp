// sim_run: functional runs (ArtemisContext::run, the native engine at
// jobs = nproc) of four paper kernels whose working sets bracket the
// last-level cache. Nearly all of the time is in sim — the reference
// interpreter plus planned execution — and the tuner stays idle.

#include <algorithm>
#include <memory>
#include <string_view>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/gridset.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "bench.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using artemis::Json;
using artemis::str_cat;
namespace sim = artemis::sim;
namespace telemetry = artemis::telemetry;

namespace {

/// A plan for one stencil step shaped like those ArtemisContext::run
/// executes (block (8,8,4), global memory only), for the engine sweep and
/// the point count.
artemis::codegen::KernelPlan step_plan(const artemis::ir::Program& prog,
                                       const artemis::ir::BoundStencil& st,
                                       const artemis::gpumodel::DeviceSpec& dev) {
  artemis::codegen::KernelConfig cfg;
  cfg.block = {8, 8, 4};
  artemis::codegen::BuildOptions bopts;
  bopts.use_shared_memory = false;
  return artemis::codegen::build_plan(prog, {st}, cfg, dev, bopts);
}

struct Kernels {
  std::vector<std::string> names;
  std::vector<std::string> sources;
  std::unique_ptr<artemis::driver::ArtemisContext> ctx;
  std::map<std::string, double> checksums;

  void setup(int jobs) {
    names.clear();
    sources.clear();
    for (const auto& k : sim_run_kernels()) {
      names.push_back(k.name);
      sources.push_back(
          artemis::stencils::benchmark(k.name).dsl(k.extent, k.t));
    }
    artemis::driver::ContextOptions co;
    co.jobs = jobs;
    co.engine = sim::SimEngine::Native;
    ctx = std::make_unique<artemis::driver::ArtemisContext>(co);
    for (const auto& src : sources) ctx->compile(src);
  }

  /// Checks one kernel's copyout arrays: planned execution must equal the
  /// reference exactly, and the checksum must repeat across runs.
  bool check(const std::string& name,
             const std::vector<artemis::driver::RunCheck>& checks, Result& r) {
    double sum = 0;
    for (const auto& c : checks) {
      if (c.max_abs_diff != 0) {
        r.fail(str_cat(name, ": ", c.array, " max_abs_diff ", c.max_abs_diff));
        return false;
      }
      sum += c.checksum;
    }
    const auto [it, first] = checksums.emplace(name, sum);
    if (!first && it->second != sum) {
      r.fail(str_cat(name, ": checksum changed between runs"));
      return false;
    }
    return true;
  }

  double run(std::size_t i, Result& r) {
    ++r.attempted;
    const double t0 = now_s();
    artemis::driver::RunOutcome out;
    try {
      out = ctx->run(sources[i]);
    } catch (const std::exception& e) {
      r.fail(str_cat(names[i], ": run threw: ", e.what()));
      return -1;
    }
    const double dt = now_s() - t0;
    return check(names[i], out.checks, r) ? dt : -1;
  }

  /// The reference interpreter alone on a fresh grid set, against the
  /// points the program's stencil steps compute.
  void time_reference(std::size_t i, Result& r) {
    const std::string p = str_cat("sim.", names[i], ".");
    const artemis::ir::Program prog = ctx->compile(sources[i]).program;
    std::int64_t points = 0;
    for (const auto& step : artemis::ir::flatten_steps(prog)) {
      if (step.kind == artemis::ir::ExecStep::Kind::Stencil) {
        points += step_plan(prog, step.stencil, ctx->device()).domain.volume();
      }
    }
    sim::GridSet gs = sim::GridSet::from_program(prog, 1);
    const double t = now_s();
    sim::run_program_reference(prog, gs);
    const double ref_s = now_s() - t;
    r.set(p + "reference_s", ref_s);
    r.set(p + "reference_mpts_per_s",
          static_cast<double>(points) / ref_s / 1e6);
  }

  /// Throughput of each engine at 1 and nproc jobs on the kernel's first
  /// stencil step, and the global bytes it moves per computed point.
  void engine_sweep(std::size_t i, int jobs, Result& r) {
    const std::string p = str_cat("sim.", names[i], ".");
    const artemis::ir::Program prog = ctx->compile(sources[i]).program;
    const auto steps = artemis::ir::flatten_steps(prog);
    const artemis::ir::ExecStep* first = nullptr;
    for (const auto& s : steps) {
      if (s.kind == artemis::ir::ExecStep::Kind::Stencil) {
        first = &s;
        break;
      }
    }
    if (first == nullptr) return;
    const auto plan = step_plan(prog, first->stencil, ctx->device());
    sim::GridSet gs = sim::GridSet::from_program(prog, 1);
    const std::pair<const char*, sim::SimEngine> engines[] = {
        {"bytecode", sim::SimEngine::Bytecode},
        {"native", sim::SimEngine::Native}};
    const std::pair<const char*, int> job_counts[] = {{"j1", 1}, {"jN", jobs}};
    for (const auto& [ename, engine] : engines) {
      for (const auto& [jname, j] : job_counts) {
        sim::ExecOptions eo;
        eo.engine = engine;
        eo.jobs = j;
        const double t = now_s();
        const sim::ExecCounters c = sim::execute_plan(plan, gs, eo);
        const double dt = now_s() - t;
        r.set(str_cat(p, ename, ".", jname, ".mpts_per_s"),
              static_cast<double>(c.computed_points) / dt / 1e6);
        if (c.computed_points > 0) {
          r.set(p + "bytes_per_point",
                8.0 * static_cast<double>(c.global_read_elems +
                                          c.global_write_elems) /
                    static_cast<double>(c.computed_points));
        }
      }
    }
  }
};

}  // namespace

Result run_sim_run(const Options& opts) {
  Result r;
  Kernels kernels;
  kernels.setup(opts.jobs);
  Json ws = Json::object();
  for (std::size_t i = 0; i < kernels.names.size(); ++i) {
    ws.set(kernels.names[i],
           Json(working_set_bytes(kernels.ctx->compile(kernels.sources[i]).program)));
  }
  r.detail.set("working_set_bytes", std::move(ws));
  r.detail.set("llc_bytes", Json(llc_bytes()));
  const std::size_t n = kernels.names.size();
  const auto order = seeded_order(opts.seed, n);

  if (!opts.trace) {
    std::vector<double> setups;
    set_item_metrics(r, sample_items(kernels.names, order, opts.seconds,
                                     [&](std::size_t i) {
                                       const double dt = kernels.run(i, r);
                                       setups.push_back(timed_setup_s([&] {
                                         Kernels().setup(opts.jobs);
                                       }));
                                       return dt;
                                     }));
    r.set("setup_s", mean(setups));
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  // Traced run: one untraced pass, then the same pass with the library's
  // telemetry and the benchmark's spans on.
  double untraced = 0;
  for (const std::size_t i : order) untraced += std::max(kernels.run(i, r), 0.0);
  auto& col = telemetry::Collector::global();
  col.clear();
  col.enable();
  double traced = 0;
  for (const std::size_t i : order) {
    const telemetry::Span bench("bench.kernel", "bench",
                                {{"kernel", Json(kernels.names[i])}});
    const telemetry::Span span("driver.run", "bench");
    traced += std::max(kernels.run(i, r), 0.0);
  }
  col.disable();
  r.detail.set("untraced_suite_s", Json(untraced));
  r.detail.set("traced_suite_s", Json(traced));
  r.set("telemetry.overhead_ratio", untraced > 0 ? traced / untraced : 0);
  // Each kernel's planned execution: the sim.execute_plan spans inside its
  // bench.kernel span, which the pass opened in `order`.
  const auto events = col.snapshot();
  std::vector<const telemetry::Event*> kernel_spans;
  for (const auto& ev : events) {
    if (ev.phase == telemetry::Event::Phase::Complete &&
        std::string_view(ev.name) == "bench.kernel") {
      kernel_spans.push_back(&ev);
    }
  }
  std::sort(kernel_spans.begin(), kernel_spans.end(),
            [](const telemetry::Event* a, const telemetry::Event* b) {
              return a->ts_ns < b->ts_ns;
            });
  for (std::size_t k = 0; k < kernel_spans.size() && k < n; ++k) {
    r.set(str_cat("sim.", kernels.names[order[k]], ".exec_s"),
          span_total_within_s(events, "sim.execute_plan", *kernel_spans[k]));
  }
  collect_trace(r, str_cat(opts.out_dir, "/trace-sim_run-", opts.seed, ".json"));
  for (const std::size_t i : order) {
    kernels.time_reference(i, r);
    kernels.engine_sweep(i, opts.jobs, r);
  }
  layer_probe(kernels.sources, *kernels.ctx, r);
  return r;
}

}  // namespace perfbench
