// Component microbenchmarks (google-benchmark): throughput of the DSL
// frontend, IR analysis, plan construction, the analytic performance
// model, and the tiled functional executor. These are engineering-health
// numbers for the framework itself (the paper's tables/figures live in
// the sibling harnesses).

#include <benchmark/benchmark.h>

#include "artemis/codegen/plan_builder.hpp"
#include "artemis/dsl/parser.hpp"
#include "artemis/gpumodel/perf_model.hpp"
#include "artemis/sim/executor.hpp"
#include "artemis/sim/reference.hpp"
#include "artemis/stencils/benchmarks.hpp"

using namespace artemis;

namespace {

void BM_ParseJacobi(benchmark::State& state) {
  const std::string src = stencils::benchmark("7pt-smoother").dsl(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::parse(src));
  }
}
BENCHMARK(BM_ParseJacobi);

void BM_ParseRhs4sgcurv(benchmark::State& state) {
  const std::string src = stencils::benchmark("rhs4sgcurv").dsl(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::parse(src));
  }
}
BENCHMARK(BM_ParseRhs4sgcurv);

void BM_AnalyzeRhs4center(benchmark::State& state) {
  const auto prog = stencils::benchmark_program("rhs4center", 64);
  const auto bound = ir::bind_call(prog, prog.steps[0].call);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::analyze(prog, bound));
  }
}
BENCHMARK(BM_AnalyzeRhs4center);

void BM_BuildPlan(benchmark::State& state) {
  const auto prog = stencils::benchmark_program("hypterm", 320);
  const auto dev = gpumodel::p100();
  codegen::KernelConfig cfg;
  cfg.tiling = codegen::TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {16, 8, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev));
  }
}
BENCHMARK(BM_BuildPlan);

// The tuner's per-candidate cost: the same plan as BM_BuildPlan,
// instantiated from a template prepared once outside the loop.
void BM_InstantiatePlan(benchmark::State& state) {
  const auto prog = stencils::benchmark_program("hypterm", 320);
  const auto dev = gpumodel::p100();
  codegen::KernelConfig cfg;
  cfg.tiling = codegen::TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {16, 8, 1};
  const codegen::PlanTemplate tmpl =
      codegen::prepare_plan(prog, {ir::bind_call(prog, prog.steps[0].call)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(codegen::build_plan(tmpl, cfg, dev));
  }
}
BENCHMARK(BM_InstantiatePlan);

void BM_EvaluatePlan(benchmark::State& state) {
  const auto prog = stencils::benchmark_program("hypterm", 320);
  const auto dev = gpumodel::p100();
  codegen::KernelConfig cfg;
  cfg.tiling = codegen::TilingScheme::StreamSerial;
  cfg.stream_axis = 2;
  cfg.block = {16, 8, 1};
  const auto plan =
      codegen::build_plan_for_call(prog, prog.steps[0].call, cfg, dev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpumodel::evaluate(plan, dev));
  }
}
BENCHMARK(BM_EvaluatePlan);

void BM_ExecutorJacobi(benchmark::State& state) {
  const auto extent = state.range(0);
  const auto prog =
      stencils::benchmark_program("7pt-smoother", extent, 1);
  const auto dev = gpumodel::p100();
  codegen::KernelConfig cfg;
  cfg.block = {8, 8, 4};
  codegen::BuildOptions opts;
  opts.use_shared_memory = false;
  const auto plan = codegen::build_plan_for_call(
      prog, prog.steps[0].body[0].call, cfg, dev, opts);
  sim::GridSet gs = sim::GridSet::from_program(prog, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::execute_plan(plan, gs));
  }
  state.SetItemsProcessed(state.iterations() * extent * extent * extent);
}
BENCHMARK(BM_ExecutorJacobi)->Arg(16)->Arg(32)->Arg(48);

void BM_ReferenceJacobi(benchmark::State& state) {
  const auto extent = state.range(0);
  const auto prog =
      stencils::benchmark_program("7pt-smoother", extent, 1);
  const auto bound = ir::bind_call(prog, prog.steps[0].body[0].call);
  sim::GridSet gs = sim::GridSet::from_program(prog, 1);
  for (auto _ : state) {
    sim::run_stencil_reference(prog, bound, gs);
  }
  state.SetItemsProcessed(state.iterations() * extent * extent * extent);
}
BENCHMARK(BM_ReferenceJacobi)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
