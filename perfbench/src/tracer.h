#pragma once

/// \file tracer.h
/// In-memory span recorder for the benchmark's traced runs.
///
/// A span wraps one call from the benchmark into a library layer. Spans
/// nest: the operation's root span ("op") parents every layer call the
/// operation makes, and the engine phases that TrainingSimulator::run
/// reports through holmes.self_profile.v1 (lowering, event loop,
/// accounting) become child spans of the span around the call that ran
/// them, since they have no public boundary of their own. A span's self
/// time is its duration minus its children's, so the self times of one
/// operation add up to its wall time, with the root's self time as the
/// unattributed remainder.
///
/// When disabled, a Scope costs one branch and reads no clock.

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/self_profile.h"

namespace perfbench {

namespace obs = holmes::obs;
using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;     ///< index into spans(), -1 for an operation root
    int op = -1;         ///< operation index the span belongs to
    double begin_s = 0;  ///< seconds since the tracer was created
    double end_s = 0;
    bool phase = false;  ///< engine self-profile phase (duration only)
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Starts the next operation: opens its root span and installs a fresh
  /// obs::SelfProfiler on this thread for the operation's lifetime.
  void begin_op();
  /// Closes the root span and removes the profiler.
  void end_op();

  int open(const char* name);
  void close(int index);

  /// Self-profile snapshot of the running operation (traced runs only).
  obs::SelfProfile snapshot() const;
  /// Attributes the engine phases and counters gained between two
  /// snapshots to the innermost open span.
  void attribute(const obs::SelfProfile& before, const obs::SelfProfile& after);

  /// Adds `n` to a per-layer counter.
  void count(const std::string& name, double n);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counters() const { return counters_; }
  int ops() const { return ops_; }

 private:
  double now() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counters_;
  std::optional<obs::SelfProfiler> profiler_;
  int ops_ = 0;
};

/// RAII root span of one operation.
class OpScope {
 public:
  explicit OpScope(Tracer& tracer) : tracer_(tracer) {
    if (tracer_.enabled()) tracer_.begin_op();
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
  ~OpScope() {
    if (tracer_.enabled()) tracer_.end_op();
  }

 private:
  Tracer& tracer_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (index_ >= 0) tracer_.close(index_);
  }

 private:
  Tracer& tracer_;
  int index_;
};

/// Runs `fn` and, on a traced run, attributes the engine phases and
/// counters it accumulated on this thread to the innermost open span.
template <class Fn>
auto profiled(Tracer& tracer, Fn&& fn) {
  if (!tracer.enabled()) return fn();
  const obs::SelfProfile before = tracer.snapshot();
  auto result = fn();
  tracer.attribute(before, tracer.snapshot());
  return result;
}

}  // namespace perfbench
