// serve_mix: an in-process artemisd (ArtemisService behind SocketServer
// on a real-filesystem plan store) driven by one process over three
// unix-socket connections:
//   - fast lane, open loop, seeded Poisson arrivals: store-hit tunes of the
//     four pre-seeded hot programs (100/s), compiles (50/s) and runs of
//     7pt-smoother 32^3 T=2 (10/s), each timed from when it was due;
//   - cold lane, closed loop: back-to-back tunes of distinct new programs;
//   - duplicate lane: each cold program again 50 ms later, so the service
//     coalesces it onto the in-flight tune.
// It is the only workload that exercises storage and service, and its
// traced run times robust's journal.
//
// The daemon runs without a journal directory. A journaled cold tune
// fsyncs once per evaluated candidate (about 7.7k times for 7pt-smoother
// 64^3), and on a shared virtual disk that made the cold-tune p50 swing
// 1.6-3.0 s between runs, more than any bound can absorb. The traced run
// still times the same cold tune with and without a journal (robust.*).

#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "artemis/common/str.hpp"
#include "artemis/service/socket_server.hpp"
#include "artemis/stencils/benchmarks.hpp"
#include "artemis/telemetry/telemetry.hpp"
#include "bench.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace perfbench {

using artemis::Json;
using artemis::str_cat;
namespace fs = std::filesystem;
namespace service = artemis::service;
namespace telemetry = artemis::telemetry;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kHotKernels[] = {"7pt-smoother", "helmholtz", "denoise",
                                       "miniflux"};
constexpr int kHotPrograms = static_cast<int>(std::size(kHotKernels));
constexpr int kIterations = 2;
constexpr auto kDuplicateDelay = std::chrono::milliseconds(50);

std::string kernel_source(const std::string& kernel, std::int64_t extent) {
  return artemis::stencils::benchmark(kernel).dsl(extent, kIterations);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The daemon under test plus what setup learned about its hot programs.
class Daemon {
 public:
  Daemon(const Options& opts, int index)
      : dir_(str_cat(opts.out_dir, "/serve_mix-", getpid(), "-", index)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    service::ServiceOptions so;
    // One processor stays with the request path, so the fast lane times
    // the service rather than the scheduler.
    so.context.jobs = std::max(1, opts.jobs - 1);
    so.context.store_root = dir_ + "/store";
    svc_ = std::make_unique<service::ArtemisService>(so);
    for (const char* kernel : kHotKernels) {
      hot_sources.push_back(kernel_source(kernel, kHotExtent));
      const auto out = svc_->context().tune(hot_sources.back());
      hot_keys.push_back(out.compile.plan_key);
      hot_bytes.push_back(out.plan_bytes);
    }
    run_source = kernel_source("7pt-smoother", 32);
    server_ = std::make_unique<service::SocketServer>(
        *svc_, str_cat(opts.out_dir, "/mix-", getpid(), "-", index, ".sock"));
    serve_thread_ = std::thread([this] { server_->serve(); });
  }

  /// Stops the accept loop and waits for it; every client must already be
  /// closed, since the server drains its connection threads.
  ~Daemon() {
    server_->stop();
    serve_thread_.join();
    server_.reset();
    svc_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return server_->socket_path(); }
  const std::string& dir() const { return dir_; }
  service::ArtemisService& svc() { return *svc_; }

  std::vector<std::string> hot_sources, hot_keys, hot_bytes;
  std::string run_source;

 private:
  std::string dir_;
  std::unique_ptr<service::ArtemisService> svc_;
  std::unique_ptr<service::SocketServer> server_;
  std::thread serve_thread_;
};

/// What one lane saw. Each lane thread owns one; they merge after join.
struct Lane {
  std::int64_t attempted = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> ms;  ///< latency per class
  double late_ms_max = 0;
};

Json request(std::int64_t id, const char* method, const std::string& source) {
  Json params = Json::object();
  params.set("source", Json(source));
  Json req = Json::object();
  req.set("id", Json(id));
  req.set("method", Json(method));
  req.set("params", std::move(params));
  return req;
}

/// One round trip; a failed or refused request is recorded and yields a
/// null result. The daemon serves it on its own connection thread, so the
/// layer spans it records there land beside this span, not inside it.
Json call(service::UnixClient& client, const Json& req, Lane& lane) {
  ++lane.attempted;
  const telemetry::Span span("bench.request", "bench",
                             {{"method", req["method"]}, {"id", req["id"]}});
  const Json resp = client.call(req);
  if (!resp["ok"].as_bool()) {
    lane.failures.push_back(str_cat(req["method"].as_string(), " error: ",
                                    resp["error"].dump()));
    return Json();
  }
  return resp["result"];
}

struct ColdTune {
  std::size_t index = 0;
  std::string source;
  Clock::time_point sent;
};

struct MixOutcome {
  std::map<std::string, std::vector<double>> ms;
  double late_ms_max = 0;
  std::uint64_t dedup_coalesced = 0;
  std::uint64_t tuner_runs = 0;
};

/// Runs the three lanes for opts.seconds against `d`, drawing cold
/// programs from cold[*next...].
MixOutcome run_mix(Daemon& d, const Options& opts,
                   const std::vector<ColdProgram>& cold, std::size_t* next,
                   Result& r) {
  const auto before = d.svc().stats_snapshot();
  const auto schedule =
      fast_lane_schedule(opts.seed, opts.seconds, kHotPrograms);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opts.seconds));

  std::mutex mu;
  std::condition_variable cv;
  std::deque<ColdTune> dup_queue;
  bool cold_done = false;
  std::map<std::size_t, std::string> primary_bytes, dup_bytes;
  Lane fast, cold_lane, dup;

  std::jthread fast_thread([&] {
    try {
      service::UnixClient client(d.socket_path());
      std::int64_t id = 0;
      for (const FastRequest& fr : schedule) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(fr.due_s));
        std::this_thread::sleep_until(due);
        fast.late_ms_max =
            std::max(fast.late_ms_max, ms_between(due, Clock::now()));
        const int p = fr.program;
        const char* method = fr.kind == FastKind::Compile ? "compile"
                             : fr.kind == FastKind::Run   ? "run"
                                                          : "tune";
        const std::string& src =
            fr.kind == FastKind::Run ? d.run_source : d.hot_sources[p];
        const Json res = call(client, request(++id, method, src), fast);
        const double ms = ms_between(due, Clock::now());
        if (res.is_null()) continue;
        if (fr.kind == FastKind::Hit) {
          if (!res["cached"].as_bool()) {
            fast.failures.push_back(str_cat("hit on ", kHotKernels[p],
                                            " was tuned again"));
            continue;
          }
          if (res["plan_bytes"].as_string() != d.hot_bytes[p]) {
            fast.failures.push_back(str_cat("hit on ", kHotKernels[p],
                                            " served other plan bytes"));
            continue;
          }
          fast.ms["hit"].push_back(ms);
        } else if (fr.kind == FastKind::Compile) {
          if (res["plan_key"].as_string() != d.hot_keys[p]) {
            fast.failures.push_back(str_cat("compile of ", kHotKernels[p],
                                            " returned another plan key"));
            continue;
          }
          fast.ms["compile"].push_back(ms);
        } else {
          bool exact = res["checks"].size() > 0;
          for (const Json& c : res["checks"].items()) {
            exact = exact && c["max_abs_diff"].as_double() == 0;
          }
          if (!exact) {
            fast.failures.push_back("run differs from the reference");
            continue;
          }
          fast.ms["run"].push_back(ms);
        }
      }
    } catch (const std::exception& e) {
      fast.failures.push_back(str_cat("fast lane: ", e.what()));
    }
  });

  std::jthread cold_thread([&] {
    try {
      service::UnixClient client(d.socket_path());
      std::int64_t id = 0;
      while (Clock::now() < end && *next < cold.size()) {
        const std::size_t idx = (*next)++;
        ColdTune ct{idx,
                    kernel_source(cold[idx].kernel, cold[idx].extent),
                    Clock::now()};
        {
          const std::lock_guard<std::mutex> lock(mu);
          dup_queue.push_back(ct);
        }
        cv.notify_one();
        const Json res = call(client, request(++id, "tune", ct.source),
                              cold_lane);
        if (res.is_null()) continue;
        if (res["cached"].as_bool()) {
          cold_lane.failures.push_back(
              str_cat("cold tune of ", cold[idx].kernel, " ", cold[idx].extent,
                      " was served from the store"));
          continue;
        }
        cold_lane.ms["miss"].push_back(ms_between(ct.sent, Clock::now()));
        const std::lock_guard<std::mutex> lock(mu);
        primary_bytes[idx] = res["plan_bytes"].as_string();
      }
    } catch (const std::exception& e) {
      cold_lane.failures.push_back(str_cat("cold lane: ", e.what()));
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      cold_done = true;
    }
    cv.notify_one();
  });

  std::jthread dup_thread([&] {
    try {
      service::UnixClient client(d.socket_path());
      std::int64_t id = 0;
      for (;;) {
        ColdTune ct;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !dup_queue.empty() || cold_done; });
          if (dup_queue.empty()) break;
          ct = std::move(dup_queue.front());
          dup_queue.pop_front();
        }
        const auto due = ct.sent + kDuplicateDelay;
        std::this_thread::sleep_until(due);
        const Json res = call(client, request(++id, "tune", ct.source), dup);
        if (res.is_null()) continue;
        dup.ms["coalesced"].push_back(ms_between(due, Clock::now()));
        const std::lock_guard<std::mutex> lock(mu);
        dup_bytes[ct.index] = res["plan_bytes"].as_string();
      }
    } catch (const std::exception& e) {
      dup.failures.push_back(str_cat("duplicate lane: ", e.what()));
    }
  });

  fast_thread.join();
  cold_thread.join();
  dup_thread.join();

  MixOutcome out;
  for (Lane* lane : {&fast, &cold_lane, &dup}) {
    r.attempted += lane->attempted;
    for (const auto& f : lane->failures) r.fail(f);
    for (auto& [cls, v] : lane->ms) {
      out.ms[cls].insert(out.ms[cls].end(), v.begin(), v.end());
    }
  }
  out.late_ms_max = fast.late_ms_max;
  for (const auto& [idx, bytes] : dup_bytes) {
    const auto it = primary_bytes.find(idx);
    if (it != primary_bytes.end() && it->second != bytes) {
      r.fail(str_cat("duplicate of cold program ", idx,
                     " got other plan bytes than the primary"));
    }
  }
  const auto after = d.svc().stats_snapshot();
  out.dedup_coalesced = after.dedup_coalesced - before.dedup_coalesced;
  out.tuner_runs = after.tuner_runs - before.tuner_runs;
  return out;
}

void report_mix(const MixOutcome& m, Result& r) {
  ItemSamples items;
  for (const char* cls : {"hit", "run", "miss"}) {
    auto it = m.ms.find(cls);
    std::vector<double> s;
    if (it != m.ms.end()) {
      for (const double ms : it->second) s.push_back(ms / 1e3);
    }
    if (s.empty()) r.fail(str_cat("no successful ", cls, " requests"));
    items[cls] = std::move(s);
  }
  set_item_metrics(r, items);
  Json classes = Json::object();
  for (const auto& [cls, v] : m.ms) {
    const double tail = tail_percentile(v.size());
    Json row = Json::object();
    row.set("n", Json(static_cast<std::int64_t>(v.size())));
    row.set("p50_ms", Json(median(v)));
    row.set("tail_percentile", Json(tail));
    row.set("tail_ms", Json(tail > 0 ? percentile(v, tail) : 0.0));
    classes.set(cls, std::move(row));
  }
  r.detail.set("classes", std::move(classes));
  const auto cls = [&](const char* name) {
    const auto it = m.ms.find(name);
    return it == m.ms.end() ? std::vector<double>{} : it->second;
  };
  r.set("service.hit_p90_ms", percentile(cls("hit"), 90));
  r.set("service.hit_p99_ms", percentile(cls("hit"), 99));
  r.set("service.compile_p50_ms", median(cls("compile")));
  r.set("service.coalesced_p50_ms", median(cls("coalesced")));
  r.set("service.dedup_coalesced", static_cast<double>(m.dedup_coalesced));
  r.set("service.tuner_runs", static_cast<double>(m.tuner_runs));
  r.set("service.gen_late_ms_max", m.late_ms_max);
}

/// storage: store reads of the hot plans and re-publication of one.
void storage_probe(Daemon& d, Result& r) {
  const telemetry::Span probe("bench.storage_probe", "bench");
  artemis::storage::PlanStore* store = d.svc().context().store();
  std::vector<double> get_us, put_ms;
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& key : d.hot_keys) {
      const telemetry::Span span("storage.get", "bench");
      const double t = now_s();
      ++r.attempted;
      if (!store->get(key)) r.fail(str_cat("store lost hot plan ", key));
      get_us.push_back((now_s() - t) * 1e6);
    }
  }
  artemis::storage::PlanRecord rec;
  if (artemis::storage::decode_plan_record(d.hot_bytes[0], &rec) !=
      artemis::storage::DecodeStatus::Ok) {
    r.fail("hot plan bytes do not decode");
    return;
  }
  for (int rep = 0; rep < 10; ++rep) {
    const telemetry::Span span("storage.put", "bench");
    const double t = now_s();
    ++r.attempted;
    if (!store->put(rec)) r.fail("store put failed");
    put_ms.push_back((now_s() - t) * 1e3);
  }
  r.set("storage.get_us_p50", median(get_us));
  r.set("storage.put_ms_p50", median(put_ms));
}

/// robust: the same cold tune without and with a journal.
void journal_probe(Daemon& d, const Options& opts, const ColdProgram& prog,
                   Result& r) {
  artemis::driver::ContextOptions co;
  co.jobs = opts.jobs;
  artemis::driver::ArtemisContext ctx(co);
  const std::string src = kernel_source(prog.kernel, prog.extent);
  ++r.attempted;
  double t = now_s();
  const auto plain = ctx.tune(src);
  r.set("robust.no_journal_s", now_s() - t);
  artemis::driver::TuneRequest req;
  req.journal_path = d.dir() + "/probe.wal";
  ++r.attempted;
  t = now_s();
  const auto journaled = ctx.tune(src, req);
  r.set("robust.journal_s", now_s() - t);
  r.set("robust.journal.records",
        static_cast<double>(journaled.journal_recorded));
  if (plain.plan_bytes != journaled.plan_bytes) {
    r.fail("journaled tune chose another plan");
  }
}

}  // namespace

Result run_serve_mix(const Options& opts) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < 3; ++rep) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(opts, rep);
    setups.push_back(now_s() - t0);
  }
  r.set("setup_s", median(setups));
  const auto cold = cold_programs(opts.seed, 160);
  std::size_t next = 0;

  const MixOutcome untraced = run_mix(*daemon, opts, cold, &next, r);
  report_mix(untraced, r);
  r.detail.set("cold_programs", Json(static_cast<std::int64_t>(next)));
  if (!opts.trace) {
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  // Traced run: the same mix again with telemetry on, against programs
  // the first window has not tuned yet.
  const double untraced_suite = r.values["suite_s"];
  auto& col = telemetry::Collector::global();
  col.clear();
  col.enable();
  const MixOutcome traced = run_mix(*daemon, opts, cold, &next, r);
  storage_probe(*daemon, r);
  col.disable();
  {
    Result scratch;
    report_mix(traced, scratch);
    r.detail.set("traced_suite_s", Json(scratch.values["suite_s"]));
    r.set("telemetry.overhead_ratio",
          untraced_suite > 0 ? scratch.values["suite_s"] / untraced_suite : 0);
  }
  collect_trace(r, str_cat(opts.out_dir, "/trace-serve_mix-", opts.seed,
                           ".json"));
  if (next < cold.size()) journal_probe(*daemon, opts, cold[next], r);
  std::vector<std::string> sources = daemon->hot_sources;
  sources.push_back(daemon->run_source);
  layer_probe(sources, daemon->svc().context(), r);
  return r;
}

}  // namespace perfbench
