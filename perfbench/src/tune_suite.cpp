// tune_suite: cold-tune the paper's 11 Table I stencils at paper size plus
// examples/diffuse.dsl through ArtemisContext::tune, with no plan store,
// tuning cache or journal. This is artemisc's compile path: the time is
// in autotune, codegen, gpumodel and driver; sim, storage and service
// stay idle.

#include <fstream>
#include <memory>
#include <sstream>

#include "artemis/common/hash.hpp"
#include "artemis/common/str.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "bench.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace perfbench {

using artemis::Json;
using artemis::str_cat;
namespace telemetry = artemis::telemetry;

namespace {

std::vector<std::string> suite_sources() {
  std::vector<std::string> sources;
  for (const auto& spec : artemis::stencils::paper_benchmarks()) {
    sources.push_back(spec.dsl());
  }
  std::ifstream in("examples/diffuse.dsl");
  if (!in) throw artemis::Error("cannot read examples/diffuse.dsl");
  std::ostringstream ss;
  ss << in.rdbuf();
  sources.push_back(ss.str());
  return sources;
}

struct Suite {
  std::vector<std::string> names = tune_suite_names();
  std::vector<std::string> sources;
  std::unique_ptr<artemis::driver::ArtemisContext> ctx;
  std::map<std::string, std::string> digests;
  std::map<std::string, double> tflops;

  void setup(int jobs) {
    sources = suite_sources();
    artemis::driver::ContextOptions co;
    co.jobs = jobs;
    ctx = std::make_unique<artemis::driver::ArtemisContext>(co);
    for (const auto& src : sources) ctx->compile(src);
  }

  /// Cold-tune program i and check its plan; returns the latency in
  /// seconds, or a negative value when the tune failed.
  double tune(std::size_t i, Result& r) {
    const std::string& name = names[i];
    ++r.attempted;
    const double t0 = now_s();
    artemis::driver::TuneOutcome out;
    try {
      out = ctx->tune(sources[i]);
    } catch (const std::exception& e) {
      r.fail(str_cat(name, ": tune threw: ", e.what()));
      return -1;
    }
    const double dt = now_s() - t0;
    artemis::storage::PlanRecord decoded;
    if (out.plan_bytes.empty() ||
        artemis::storage::decode_plan_record(out.plan_bytes, &decoded) !=
            artemis::storage::DecodeStatus::Ok ||
        artemis::storage::encode_plan_record(decoded) != out.plan_bytes) {
      r.fail(str_cat(name, ": plan record does not round-trip the store codec"));
      return -1;
    }
    const std::string digest =
        artemis::crc32_hex(artemis::crc32(out.plan_bytes));
    const auto [it, first] = digests.emplace(name, digest);
    if (!first && it->second != digest) {
      r.fail(str_cat(name, ": plan changed between repeats (", it->second,
                     " vs ", digest, ")"));
      return -1;
    }
    tflops[name] = out.record.tflops;
    return dt;
  }

  void report(Result& r) const {
    Json dj = Json::object();
    Json tj = Json::object();
    std::vector<double> tf;
    for (const auto& [name, d] : digests) dj.set(name, Json(d));
    for (const auto& [name, t] : tflops) {
      tj.set(name, Json(t));
      tf.push_back(t);
    }
    r.detail.set("plan_crc32", std::move(dj));
    r.detail.set("plan_tflops", std::move(tj));
    r.detail.set("plan_tflops_geomean", Json(geomean(tf)));
    r.set("autotune.plan_tflops_geomean", geomean(tf));
  }
};

}  // namespace

Result run_tune_suite(const Options& opts) {
  Result r;
  Suite suite;
  suite.setup(opts.jobs);
  const std::size_t n = suite.names.size();
  const auto order = seeded_order(opts.seed, n);

  if (!opts.trace) {
    std::vector<double> setups;
    set_item_metrics(r, sample_items(suite.names, order, opts.seconds,
                                     [&](std::size_t i) {
                                       const double dt = suite.tune(i, r);
                                       setups.push_back(timed_setup_s([&] {
                                         Suite().setup(opts.jobs);
                                       }));
                                       return dt;
                                     }));
    r.set("setup_s", mean(setups));
    suite.report(r);
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  // Traced run: one untraced pass, then the same pass with the library's
  // telemetry and the benchmark's spans on.
  double untraced = 0;
  for (const std::size_t i : order) {
    const double dt = suite.tune(i, r);
    r.set(str_cat("driver.tune_s.", suite.names[i]), dt);
    untraced += dt;
  }
  auto& col = telemetry::Collector::global();
  col.clear();
  col.enable();
  double traced = 0;
  for (const std::size_t i : order) {
    const telemetry::Span bench("bench.program", "bench",
                                {{"program", Json(suite.names[i])}});
    const double t0 = now_s();
    {
      const telemetry::Span span("driver.tune", "bench");
      suite.tune(i, r);
    }
    traced += now_s() - t0;
  }
  col.disable();
  r.detail.set("untraced_suite_s", Json(untraced));
  r.detail.set("traced_suite_s", Json(traced));
  r.set("telemetry.overhead_ratio", untraced > 0 ? traced / untraced : 0);
  collect_trace(r, str_cat(opts.out_dir, "/trace-tune_suite-", opts.seed,
                           ".json"));
  layer_probe(suite.sources, *suite.ctx, r);
  suite.report(r);
  return r;
}

}  // namespace perfbench
