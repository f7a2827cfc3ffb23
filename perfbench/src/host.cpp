#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "artemis/common/hash.hpp"
#include "artemis/common/str.hpp"
#include "artemis/sim/native/native.hpp"
#include "bench.hpp"

namespace perfbench {

using artemis::Json;
namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (artemis::starts_with(line, "model name")) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return artemis::trim(line.substr(colon + 1));
      }
    }
  }
  return "unknown";
}

/// The CPUs this process may run on, as "0-3,6".
std::string affinity_list(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += last == cpu ? std::to_string(cpu)
                       : artemis::str_cat(cpu, "-", last);
    *count += last - cpu + 1;
    cpu = last;
  }
  return out;
}

/// HEAD of a .git directory in the working directory, read without
/// running git; "none" in a checkout that is not a repository.
std::string git_sha() {
  const std::string head = artemis::trim(read_file(".git/HEAD"));
  if (head.empty()) return "none";
  if (!artemis::starts_with(head, "ref: ")) return head;
  const std::string ref = head.substr(5);
  const std::string sha = artemis::trim(read_file(fs::path(".git") / ref));
  if (!sha.empty()) return sha;
  std::istringstream packed(read_file(".git/packed-refs"));
  std::string line;
  while (std::getline(packed, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos && line.substr(sp + 1) == ref) {
      return line.substr(0, sp);
    }
  }
  return "unknown";
}

/// CRC-32 over the library sources (path and bytes, in path order): names
/// the measured code where no git revision is available.
std::string source_digest() {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it("src", ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  std::string all;
  for (const auto& f : files) {
    all += f.generic_string();
    all += '\0';
    all += read_file(f);
  }
  return artemis::crc32_hex(artemis::crc32(all));
}

}  // namespace

std::int64_t llc_bytes() {
  std::int64_t best = 0;
  int best_level = 0;
  const fs::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (fs::directory_iterator it(base, ec), end; !ec && it != end;
       it.increment(ec)) {
    const int level = std::atoi(read_file(it->path() / "level").c_str());
    const std::string size = artemis::trim(read_file(it->path() / "size"));
    if (size.empty() || level < best_level) continue;
    std::int64_t bytes = std::atoll(size.c_str());
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level > best_level || bytes > best) {
      best = bytes;
      best_level = level;
    }
  }
  return best;
}

Json host_block(int jobs) {
  Json h = Json::object();
  h.set("cpu_model", Json(cpu_model()));
  h.set("nproc", Json(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  int allowed = 0;
  h.set("affinity", Json(affinity_list(&allowed)));
  h.set("affinity_cpus", Json(allowed));
  h.set("jobs", Json(jobs));
  h.set("llc_bytes", Json(llc_bytes()));
  h.set("native_tier", Json(artemis::sim::native::tier_name(
                           artemis::sim::native::active_tier())));
  h.set("compiler", Json(PERFBENCH_COMPILER));
  h.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  h.set("git_sha", Json(git_sha()));
  h.set("source_crc32", Json(source_digest()));
  return h;
}

}  // namespace perfbench
