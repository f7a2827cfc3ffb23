// Host-compiler build and in-process cache of compiled stages.

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <mutex>

#include "artemis/common/hash.hpp"
#include "artemis/common/str.hpp"
#include "artemis/robust/fault_injection.hpp"
#include "artemis/sim/native/native.hpp"
#include "artemis/telemetry/telemetry.hpp"

extern char** environ;

namespace artemis::sim::native {

namespace {

/// Removes a build directory and everything the build put in it when the
/// build leaves scope — after dlopen, which keeps its own mapping.
struct TempDir {
  std::string path;
  std::vector<std::string> files;

  ~TempDir() {
    for (const auto& f : files) ::unlink((path + "/" + f).c_str());
    ::rmdir(path.c_str());
  }
};

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Run the host compiler on `src`; the loaded stage, or an error.
StageBuild build(const std::string& src) {
  StageBuild b;
  const char* tmp = std::getenv("TMPDIR");
  std::string templ = str_cat(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp",
                              "/artemis-jit-XXXXXX");
  if (::mkdtemp(templ.data()) == nullptr) {
    b.error = str_cat("mkdtemp: ", std::strerror(errno));
    return b;
  }
  TempDir dir{templ, {"stage.c", "stage.so", "cc.log"}};
  const std::string c_path = dir.path + "/stage.c";
  const std::string so_path = dir.path + "/stage.so";
  const std::string log_path = dir.path + "/cc.log";
  {
    std::ofstream out(c_path, std::ios::binary);
    out << src;
    if (!out.flush()) {
      b.error = str_cat("cannot write ", c_path);
      return b;
    }
  }

  std::vector<std::string> args = compiler_command();
  args.insert(args.end(), {"-o", so_path, c_path, "-lm"});
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  pid_t pid = 0;
  const int rc =
      ::posix_spawnp(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    b.error = str_cat("cannot start ", argv[0], ": ", std::strerror(rc));
    return b;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    b.error = WIFEXITED(status) && WEXITSTATUS(status) == 127
                  ? str_cat("cannot start ", argv[0])
                  : str_cat(argv[0], " failed: ", first_line(log_path));
    return b;
  }
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    b.error = str_cat("dlopen: ", ::dlerror());
    return b;
  }
  void* sym = ::dlsym(handle, "artemis_stage");
  if (sym == nullptr) {
    ::dlclose(handle);
    b.error = "dlsym: no artemis_stage";
    return b;
  }
  static_assert(sizeof b.stage.fn == sizeof sym);
  std::memcpy(&b.stage.fn, &sym, sizeof sym);
  b.stage.object = std::shared_ptr<void>(handle, ::dlclose);
  return b;
}

}  // namespace

const std::vector<std::string>& compiler_command() {
  static const std::vector<std::string> cmd = {
      "cc",        "-O2",         "-march=native", "-ffp-contract=off",
      "-fno-math-errno", "-fPIC", "-shared",       "-w"};
  return cmd;
}

StageBuild compile_stage(const LinearProgram& lp) {
  static std::mutex mu;
  static std::map<std::string, std::shared_future<StageBuild>> cache;
  constexpr std::size_t kMaxEntries = 256;  // runaway-program backstop

  const std::string src = emit_stage_source(lp);
  ContentHasher h;
  for (const auto& a : compiler_command()) {
    h.update(a);
    h.update("\n");
  }
  h.update(src);
  const std::string key = h.hex_digest();

  std::promise<StageBuild> promise;
  std::shared_future<StageBuild> hit;
  {
    const std::lock_guard<std::mutex> lk(mu);
    if (const auto it = cache.find(key); it != cache.end()) {
      hit = it->second;
    } else {
      if (cache.size() >= kMaxEntries) cache.clear();
      cache.emplace(key, promise.get_future().share());
    }
  }
  if (hit.valid()) {
    // Another caller owns the build; wait for it outside the lock.
    telemetry::counter_add("sim.native.compile_hits");
    return hit.get();
  }

  telemetry::counter_add("sim.native.compiles");
  StageBuild b;
  bool transient = false;
  {
    telemetry::Span span("sim.native.compile", "sim", {{"key", Json(key)}});
    const auto t0 = std::chrono::steady_clock::now();
    try {
      robust::fault_point("sim.native.compile", key);
      b = build(src);
    } catch (const std::exception& e) {
      b = StageBuild{{}, e.what()};
      transient = true;
    }
    span.arg("ms", Json(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count()));
  }
  if (b.stage.fn == nullptr) {
    telemetry::counter_add("sim.native.compile_failures");
    telemetry::instant("sim.native.compile_failure", "sim",
                       {{"key", Json(key)}, {"reason", Json(b.error)}});
  }
  promise.set_value(b);
  // A failure the source did not cause is not remembered against it.
  if (transient) {
    const std::lock_guard<std::mutex> lk(mu);
    cache.erase(key);
  }
  return b;
}

}  // namespace artemis::sim::native
