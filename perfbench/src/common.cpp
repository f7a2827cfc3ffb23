#include <sys/resource.h>

#include <algorithm>
#include <mutex>

#include "artemis/autotune/search.hpp"
#include "artemis/codegen/plan_builder.hpp"
#include "artemis/common/str.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/perf_model.hpp"
#include "artemis/gpumodel/registers.hpp"
#include "artemis/ir/analysis.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/telemetry/trace_sink.hpp"
#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using artemis::Json;
namespace telemetry = artemis::telemetry;

namespace {

// Layers whose self time the traced run reports: the modules under
// src/artemis/ with a span inside some workload's trace window. The tuner
// pool's codegen and gpumodel work records no span, so it is part of
// autotune's self time (codegen.build_plan.share estimates it); ir, robust
// and service record none either (on serve_mix the service's own time is
// what trace.unattributed_share leaves over).
const char* const kLayers[] = {"dsl",    "autotune", "driver",
                               "profile", "sim",     "storage"};

std::vector<MetricSpec> make_per_layer() {
  std::vector<MetricSpec> m = {
      {"dsl.parse_us_p50", "us"},
      {"ir.plan_key_us_p50", "us"},
      {"codegen.build_plan.calls", "count"},
      {"codegen.build_plan_us_p50", "us"},
      {"codegen.build_plan.share", "ratio"},
      {"gpumodel.evaluate_us_p50", "us"},
      {"gpumodel.estimate_registers_us_p50", "us"},
      {"autotune.enumerated", "count"},
      {"autotune.evaluated", "count"},
      {"autotune.infeasible", "count"},
      {"autotune.feasible_ratio", "ratio"},
      {"autotune.stage1_s", "s"},
      {"autotune.deep_tune_s", "s"},
      {"autotune.plan_tflops_geomean", "TFLOP/s"},
      {"driver.optimize_self_s", "s"},
      {"profile.plan_s", "s"},
  };
  for (const auto& name : tune_suite_names()) {
    m.push_back({artemis::str_cat("driver.tune_s.", name), "s"});
  }
  for (const auto& k : sim_run_kernels()) {
    const std::string p = artemis::str_cat("sim.", k.name, ".");
    m.push_back({p + "reference_s", "s"});
    m.push_back({p + "reference_mpts_per_s", "Mpts/s"});
    m.push_back({p + "exec_s", "s"});
    for (const char* engine : {"bytecode", "native"}) {
      for (const char* jobs : {"j1", "jN"}) {
        m.push_back({artemis::str_cat(p, engine, ".", jobs, ".mpts_per_s"),
                     "Mpts/s"});
      }
    }
    m.push_back({p + "bytes_per_point", "B/pt"});
  }
  const std::vector<MetricSpec> tail = {
      {"sim.native_fallbacks", "count"},
      {"storage.get_us_p50", "us"},
      {"storage.put_ms_p50", "ms"},
      {"robust.journal.records", "count"},
      {"robust.journal_s", "s"},
      {"robust.no_journal_s", "s"},
      {"service.hit_p90_ms", "ms"},
      {"service.hit_p99_ms", "ms"},
      {"service.compile_p50_ms", "ms"},
      {"service.coalesced_p50_ms", "ms"},
      {"service.dedup_coalesced", "count"},
      {"service.tuner_runs", "count"},
      {"service.gen_late_ms_max", "ms"},
      {"telemetry.overhead_ratio", "ratio"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  for (const char* layer : kLayers) {
    m.push_back({artemis::str_cat(layer, ".self_s"), "s"});
  }
  m.push_back({"trace.unattributed_share", "ratio"});
  return m;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"suite_s", "s"},        {"fast_third_ms", "ms"}, {"mid_third_ms", "ms"},
      {"slow_third_ms", "ms"}, {"setup_s", "s"},        {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = make_per_layer();
  return m;
}

std::vector<std::string> tune_suite_names() {
  std::vector<std::string> names;
  for (const auto& spec : artemis::stencils::paper_benchmarks()) {
    names.push_back(spec.name);
  }
  names.push_back("diffuse");
  return names;
}

const std::vector<SimKernel>& sim_run_kernels() {
  static const std::vector<SimKernel> k = {
      {"7pt-smoother", 256, 4},
      {"helmholtz", 192, 4},
      {"hypterm", 128, -1},
      {"rhs4sgcurv", 96, -1},
  };
  return k;
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ItemSamples sample_items(const std::vector<std::string>& names,
                         const std::vector<std::size_t>& order, double seconds,
                         const std::function<double(std::size_t)>& measure) {
  ItemSamples items;
  std::vector<double> spent(names.size(), 0);
  const double start = now_s();
  for (std::size_t k = 0; k < order.size() || now_s() - start < seconds;
       ++k) {
    std::size_t i = order[k % order.size()];
    if (k >= order.size()) {
      for (const std::size_t j : order) {
        if (spent[j] < spent[i]) i = j;
      }
    }
    const double t0 = now_s();
    const double dt = measure(i);
    spent[i] += now_s() - t0;
    if (dt >= 0) items[names[i]].push_back(dt);
  }
  return items;
}

void set_item_metrics(Result& r, const ItemSamples& items) {
  std::vector<double> medians;
  Json rows = Json::object();
  double suite = 0;
  for (const auto& [name, samples] : items) {
    const double med = median(samples);
    medians.push_back(med);
    suite += med;
    Json row = Json::object();
    row.set("n", Json(static_cast<std::int64_t>(samples.size())));
    row.set("p50_ms", Json(med * 1e3));
    row.set("iqr_share", Json(iqr_share(samples)));
    rows.set(name, std::move(row));
  }
  r.detail.set("items", std::move(rows));
  r.set("suite_s", suite);
  if (medians.size() < 3) return;
  // Thirds by cost: averaging a group's items steadies the figure where
  // one item alone would follow every scheduling or cache-sharing hiccup.
  std::sort(medians.begin(), medians.end());
  const std::size_t n = medians.size();
  const std::size_t k = (n + 2) / 3;
  const auto mean_ms = [&](std::size_t lo) {
    double sum = 0;
    for (std::size_t i = lo; i < lo + k; ++i) sum += medians[i];
    return sum / static_cast<double>(k) * 1e3;
  };
  r.set("fast_third_ms", mean_ms(0));
  r.set("mid_third_ms", mean_ms((n - k) / 2));
  r.set("slow_third_ms", mean_ms(n - k));
}

std::int64_t working_set_bytes(const artemis::ir::Program& prog) {
  std::int64_t total = 0;
  for (const auto& a : prog.arrays) {
    std::int64_t elems = 1;
    for (const auto& d : a.dims) elems *= prog.param_value(d);
    total += elems * 8;
  }
  return total;
}

void layer_probe(const std::vector<std::string>& sources,
                 artemis::driver::ArtemisContext& ctx, Result& r) {
  constexpr int kReps = 5;
  std::vector<double> parse_us, key_us;
  for (const auto& src : sources) {
    for (int rep = 0; rep < kReps; ++rep) {
      const double t0 = now_s();
      const auto prog = artemis::dsl::parse(src);
      const double t1 = now_s();
      const auto info = ctx.compile(src);
      const double t2 = now_s();
      parse_us.push_back((t1 - t0) * 1e6);
      key_us.push_back(((t2 - t1) - (t1 - t0)) * 1e6);
    }
  }
  r.set("dsl.parse_us_p50", median(parse_us));
  r.set("ir.plan_key_us_p50", median(key_us));

  // One hierarchical tune per program over its first stencil step, at the
  // context's jobs like the real tunes; the factory is called from every
  // worker, so the samples are guarded.
  const artemis::driver::Strategy& strategy = ctx.strategy();
  const artemis::gpumodel::DeviceSpec& dev = ctx.device();
  const int jobs = ctx.resolved_jobs();
  std::mutex mu;
  std::vector<double> build_us, eval_us, regs_us;
  double build_total = 0, extra_total = 0, wall = 0;
  for (const auto& src : sources) {
    const auto prog = artemis::dsl::parse(src);
    std::vector<artemis::ir::BoundStencil> stages;
    for (const auto& step : artemis::ir::flatten_steps(prog)) {
      if (step.kind == artemis::ir::ExecStep::Kind::Stencil) {
        stages.push_back(step.stencil);
        break;
      }
    }
    if (stages.empty()) continue;
    const artemis::codegen::BuildOptions bopts{
        .use_shared_memory = strategy.use_shared_memory,
        .fuse_internal = true};
    const artemis::autotune::PlanFactory factory =
        [&](const artemis::codegen::KernelConfig& cfg) {
          const double t0 = now_s();
          artemis::codegen::KernelPlan plan;
          try {
            plan = artemis::codegen::build_plan(prog, stages, cfg, dev, bopts);
          } catch (...) {
            const double dt = now_s() - t0;
            const std::lock_guard<std::mutex> lock(mu);
            build_total += dt;
            build_us.push_back(dt * 1e6);
            throw;
          }
          const double t1 = now_s();
          artemis::gpumodel::evaluate(plan, dev, ctx.options().params);
          const double t2 = now_s();
          artemis::gpumodel::estimate_registers(plan);
          const double t3 = now_s();
          const std::lock_guard<std::mutex> lock(mu);
          build_total += t1 - t0;
          extra_total += t3 - t1;
          build_us.push_back((t1 - t0) * 1e6);
          eval_us.push_back((t2 - t1) * 1e6);
          regs_us.push_back((t3 - t2) * 1e6);
          return plan;
        };
    artemis::codegen::KernelConfig seed = artemis::codegen::config_from_pragma(
        prog, stages.front().pragma, static_cast<int>(prog.iterators.size()));
    seed.retime = strategy.allow_retime;
    seed.fold = strategy.allow_fold;
    artemis::autotune::TuneOptions topts = strategy.tune;
    topts.jobs = jobs;
    const double t0 = now_s();
    ++r.attempted;
    try {
      artemis::autotune::hierarchical_tune(factory, seed, dev,
                                           ctx.options().params, topts);
    } catch (const std::exception& e) {
      r.fail(artemis::str_cat("probe tune threw: ", e.what()));
    }
    wall += now_s() - t0;
  }
  // Share of the workers' time the tunes spent building plans.
  const double busy = wall * jobs - extra_total;
  r.set("codegen.build_plan.calls", static_cast<double>(build_us.size()));
  r.set("codegen.build_plan_us_p50", median(build_us));
  r.set("codegen.build_plan.share", busy > 0 ? build_total / busy : 0);
  r.set("gpumodel.evaluate_us_p50", median(eval_us));
  r.set("gpumodel.estimate_registers_us_p50", median(regs_us));
}

void collect_trace(Result& r, const std::string& path) {
  auto& col = telemetry::Collector::global();
  const auto events = col.snapshot();
  const auto counters = col.counters();
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double enumerated = counter("tuner.enumerated");
  r.set("autotune.enumerated", enumerated);
  r.set("autotune.evaluated", counter("tuner.evaluated"));
  r.set("autotune.infeasible", counter("tuner.infeasible"));
  r.set("autotune.feasible_ratio",
        enumerated > 0 ? counter("tuner.evaluated") / enumerated : 0);
  r.set("autotune.stage1_s", span_total_s(events, "tune.stage1"));
  r.set("autotune.deep_tune_s", span_total_s(events, "driver.deep_tune"));
  r.set("driver.optimize_self_s", span_self_s(events, "driver.optimize"));
  r.set("profile.plan_s", span_total_s(events, "profile.plan"));
  r.set("sim.native_fallbacks", counter("sim.native_fallbacks"));

  const auto layers = layer_self_times(events);
  Json lj = Json::object();
  for (const auto& [layer, t] : layers) {
    Json row = Json::object();
    row.set("self_s", Json(t.self_s));
    row.set("spans", Json(static_cast<std::int64_t>(t.spans)));
    lj.set(layer, std::move(row));
  }
  for (const char* layer : kLayers) {
    const auto it = layers.find(layer);
    r.set(artemis::str_cat(layer, ".self_s"),
          it == layers.end() ? 0.0 : it->second.self_s);
  }
  r.set("trace.unattributed_share", unattributed_share(events));
  r.detail.set("layer_self", std::move(lj));
  Json cj = Json::object();
  for (const auto& [name, v] : counters) cj.set(name, Json(v));
  r.detail.set("counters", std::move(cj));
  r.detail.set("trace_events", Json(static_cast<std::int64_t>(events.size())));
  if (telemetry::write_file(path, telemetry::chrome_trace(events, counters).dump())) {
    r.detail.set("trace_file", Json(path));
  } else {
    r.fail(artemis::str_cat("cannot write trace '", path, "'"));
  }
}

}  // namespace perfbench
