#pragma once

// Per-layer attribution of a traced run. The benchmark records its spans
// on the library's telemetry collector (next to the spans the library
// already emits), keeps them in memory, and reduces them here.

#include <map>
#include <string>
#include <vector>

#include "artemis/telemetry/telemetry.hpp"

namespace perfbench {

/// The layer (repository module) a span belongs to: the span name up to
/// its first '.', with the library's "parse" span filed under dsl and its
/// "tune.*" spans under autotune. The benchmark's own bookkeeping spans
/// are "bench.*".
std::string layer_of(const std::string& span_name);

struct LayerTime {
  double self_s = 0;  ///< span time not covered by child spans
  long spans = 0;
};

/// Self time per layer. Spans nest per thread by time; a span's self time
/// is its duration minus the durations of its direct children on the same
/// thread. Work a span hands to other threads stays in its self time
/// unless those threads record spans of their own.
std::map<std::string, LayerTime> layer_self_times(
    const std::vector<artemis::telemetry::Event>& events);

/// Share of the wall time of the benchmark's root "bench.*" spans that no
/// layer span covers: the time the trace leaves unexplained. A layer span
/// covers a bench span when it is its child on the same thread, or when it
/// is a root span on a thread that records no bench span (work handed
/// off, such as a daemon connection thread serving a request) and runs
/// during the bench span's uncovered time.
double unattributed_share(const std::vector<artemis::telemetry::Event>& events);

/// Sum of the durations (seconds) of every span called `name`.
double span_total_s(const std::vector<artemis::telemetry::Event>& events,
                    const std::string& name);

/// Sum of the durations (seconds) of the spans called `name` that run on
/// `outer`'s thread within `outer`.
double span_total_within_s(const std::vector<artemis::telemetry::Event>& events,
                           const std::string& name,
                           const artemis::telemetry::Event& outer);

/// Sum of the self times (seconds) of every span called `name`.
double span_self_s(const std::vector<artemis::telemetry::Event>& events,
                   const std::string& name);

}  // namespace perfbench
