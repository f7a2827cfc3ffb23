#include "trace.hpp"

#include <algorithm>
#include <set>

namespace perfbench {

using artemis::telemetry::Event;

std::string layer_of(const std::string& span_name) {
  const auto dot = span_name.find('.');
  const std::string head =
      dot == std::string::npos ? span_name : span_name.substr(0, dot);
  if (head == "parse") return "dsl";
  if (head == "tune") return "autotune";
  return head;
}

namespace {

/// How the Complete spans nest, indexed like `events`: each span's self
/// time (ns) and its direct parent on the same thread (-1 for a root).
struct Nesting {
  std::vector<std::int64_t> self;
  std::vector<std::ptrdiff_t> parent;
};

Nesting nest(const std::vector<Event>& events) {
  std::map<int, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == Event::Phase::Complete) {
      by_tid[events[i].tid].push_back(i);
    }
  }
  Nesting n{std::vector<std::int64_t>(events.size(), 0),
            std::vector<std::ptrdiff_t>(events.size(), -1)};
  for (auto& [tid, idx] : by_tid) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (events[a].ts_ns != events[b].ts_ns) {
        return events[a].ts_ns < events[b].ts_ns;
      }
      return events[a].dur_ns > events[b].dur_ns;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : idx) {
      const Event& ev = events[i];
      while (!stack.empty()) {
        const Event& top = events[stack.back()];
        if (top.ts_ns + top.dur_ns > ev.ts_ns) break;
        stack.pop_back();
      }
      n.self[i] = ev.dur_ns;
      if (!stack.empty()) {
        n.self[stack.back()] -= ev.dur_ns;
        n.parent[i] = static_cast<std::ptrdiff_t>(stack.back());
      }
      stack.push_back(i);
    }
  }
  return n;
}

bool is_bench(const Event& ev) {
  return ev.phase == Event::Phase::Complete && layer_of(ev.name) == "bench";
}

}  // namespace

std::map<std::string, LayerTime> layer_self_times(
    const std::vector<Event>& events) {
  const std::vector<std::int64_t> self = nest(events).self;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase != Event::Phase::Complete) continue;
    LayerTime& lt = out[layer_of(events[i].name)];
    lt.self_s += static_cast<double>(self[i]) * 1e-9;
    ++lt.spans;
  }
  return out;
}

double unattributed_share(const std::vector<Event>& events) {
  const Nesting n = nest(events);
  std::set<int> bench_tids;
  for (const Event& ev : events) {
    if (is_bench(ev)) bench_tids.insert(ev.tid);
  }
  // The bench spans' self intervals: each bench span minus its direct
  // children on its own thread.
  std::vector<std::vector<std::size_t>> children(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (n.parent[i] >= 0) {
      children[static_cast<std::size_t>(n.parent[i])].push_back(i);
    }
  }
  for (auto& c : children) {
    std::sort(c.begin(), c.end(), [&](std::size_t a, std::size_t b) {
      return events[a].ts_ns < events[b].ts_ns;
    });
  }
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::vector<Interval> uncovered;
  double bench_self = 0;
  double bench_total = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    if (!is_bench(ev)) continue;
    bench_self += static_cast<double>(n.self[i]);
    if (n.parent[i] < 0) bench_total += static_cast<double>(ev.dur_ns);
    std::int64_t from = ev.ts_ns;
    for (const std::size_t c : children[i]) {
      if (events[c].ts_ns > from) uncovered.emplace_back(from, events[c].ts_ns);
      from = std::max(from, events[c].ts_ns + events[c].dur_ns);
    }
    if (ev.ts_ns + ev.dur_ns > from) {
      uncovered.emplace_back(from, ev.ts_ns + ev.dur_ns);
    }
  }
  std::sort(uncovered.begin(), uncovered.end());
  std::vector<Interval> merged;
  for (const Interval& iv : uncovered) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  // Work a bench span hands to a thread that records no bench span (the
  // daemon's connection threads) covers the part of the bench span's self
  // time it overlaps; each such root span counts once.
  double handed_off = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    if (ev.phase != Event::Phase::Complete || n.parent[i] >= 0 ||
        bench_tids.count(ev.tid) != 0) {
      continue;
    }
    const std::int64_t lo = ev.ts_ns;
    const std::int64_t hi = ev.ts_ns + ev.dur_ns;
    auto it = std::upper_bound(
        merged.begin(), merged.end(), lo,
        [](std::int64_t t, const Interval& iv) { return t < iv.second; });
    for (; it != merged.end() && it->first < hi; ++it) {
      handed_off += static_cast<double>(std::min(hi, it->second) -
                                        std::max(lo, it->first));
    }
  }
  return bench_total > 0
             ? std::max(0.0, bench_self - handed_off) / bench_total
             : 0;
}

double span_total_s(const std::vector<Event>& events,
                    const std::string& name) {
  double total = 0;
  for (const Event& ev : events) {
    if (ev.phase == Event::Phase::Complete && name == ev.name) {
      total += static_cast<double>(ev.dur_ns) * 1e-9;
    }
  }
  return total;
}

double span_total_within_s(const std::vector<Event>& events,
                           const std::string& name, const Event& outer) {
  double total = 0;
  for (const Event& ev : events) {
    if (ev.phase == Event::Phase::Complete && name == ev.name &&
        ev.tid == outer.tid && ev.ts_ns >= outer.ts_ns &&
        ev.ts_ns + ev.dur_ns <= outer.ts_ns + outer.dur_ns) {
      total += static_cast<double>(ev.dur_ns) * 1e-9;
    }
  }
  return total;
}

double span_self_s(const std::vector<Event>& events,
                   const std::string& name) {
  const std::vector<std::int64_t> self = nest(events).self;
  double total = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == Event::Phase::Complete && name == events[i].name) {
      total += static_cast<double>(self[i]) * 1e-9;
    }
  }
  return total;
}

}  // namespace perfbench
