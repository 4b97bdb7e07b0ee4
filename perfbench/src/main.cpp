/// \file main.cpp
/// The benchmark binary:
///
///   perfbench --workload analyze|tune|recover --seed N --seconds S
///                    --trace 0|1 [--spans FILE]
///
/// Sets the workload up several times (the median is setup_s), then runs
/// rounds of operations until `--seconds` have passed, finishing the round
/// it is in, and times the calibration kernel before every operation (see
/// calibration.h); all times it reports are scaled to the reference host.
/// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
/// every operation twice, once untraced and once traced (which of the two
/// goes first alternates from one input to the next), reports the
/// per-layer self times and counts of the traced runs and the difference
/// between the two as the tracing overhead, and writes the spans to FILE.
/// `attempted` and `failed` count the traced operations only. The last line
/// of standard output is the JSON result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "calibration.h"
#include "obs/self_profile.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace");
      args.trace = value == "1";
      have_trace = true;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed || !have_trace ||
      !(args.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench --workload W --seed N --seconds S "
        "--trace 0|1 [--spans FILE]");
  }
  return args;
}

std::unique_ptr<Workload> make(const Args& args) {
  if (args.workload == "analyze") return make_analyze(args.seed);
  if (args.workload == "tune") return make_tune(args.seed, args.trace);
  if (args.workload == "recover") return make_recover(args.seed);
  throw std::invalid_argument("unknown workload " + args.workload);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const double even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    d = 1 / guard(1 + even * d);
    c = guard(1 + even / c);
    h *= d * c;
    const double odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
    d = 1 / guard(1 + odd * d);
    c = guard(1 + odd / c);
    h *= d * c;
    if (std::abs(d * c - 1) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * beta_fraction(a, b, x) / a;
  return 1 - front * beta_fraction(b, a, 1 - x) / b;
}

/// Harrell-Davis estimate of the q-quantile: a weighted mean of the sorted
/// values with Beta((n + 1) q, (n + 1)(1 - q)) weights. The operations of a
/// round cluster by model, framework and size with gaps between the
/// clusters, and a plain order statistic jumps across a gap when one
/// operation moves; this estimate moves by that operation's weight.
double harrell_davis(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = (n + 1) * q;
  const double b = (n + 1) * (1 - q);
  double estimate = 0;
  double below = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics from the traced operations: the mean self time per
/// operation of each layer, scaled to the reference host like the
/// operation's own time (`factors`, indexed by operation), the mean counts
/// per operation, and the memo hit ratio with its base. Throws
/// CheckFailure unless each operation's self times add up to its wall time.
std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const std::vector<double>& factors) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_s - spans[i].begin_s;
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          spans[i].end_s - spans[i].begin_s;
    }
  }
  std::map<int, double> op_wall;
  std::map<int, double> op_self;
  std::map<std::string, double> layer_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    require(self[i] >= -1e-9, std::string("negative self time in ") + span.name);
    layer_s[span.name] += self[i] * factors[static_cast<std::size_t>(span.op)];
    op_self[span.op] += self[i];
    if (span.parent < 0) op_wall[span.op] = span.end_s - span.begin_s;
  }
  double wall = 0;
  for (const auto& [op, w] : op_wall) {
    require(std::abs(op_self[op] - w) <= 1e-9 * w + 1e-12,
            "layer self times do not add up to the operation's wall time");
    wall += w * factors[static_cast<std::size_t>(op)];
  }

  const double ops = std::max(1, tracer.ops());
  std::vector<Metric> metrics;
  const char* layers[] = {
      "net.parse_topology", "core.plan",          "verify.plan_lint",
      "core.sim_run",       "core.lower",         "sim.event_loop",
      "obs.accounting",     "obs.run_summary",    "obs.critical_path",
      "obs.timeline",       "verify.artifact_lint", "util.serialize",
      "core.fault_parse",   "core.fault_lint",    "core.fault_lower",
      "core.fault_injection",
  };
  for (const char* layer : layers) {
    metrics.push_back({std::string(layer) + "_ms", layer_s[layer] * 1e3 / ops, "ms"});
  }
  metrics.push_back({"op.remainder_ms", layer_s["op"] * 1e3 / ops, "ms"});
  metrics.push_back({"op.wall_ms", wall * 1e3 / ops, "ms"});

  std::map<std::string, double> counts = tracer.counters();
  const char* counters[] = {
      "sim.tasks",         "sim.deps",           "sim.ready_pops",
      "core.cost_model_evals", "sim.memo_hits",  "sim.memo_misses",
      "sim.memo_bypass",   "core.autotune_candidates",
      "core.autotune_rejected",
  };
  for (const char* counter : counters) {
    metrics.push_back({counter, counts[counter] / ops, "count/op"});
  }
  metrics.push_back(
      {"util.serialize_bytes", counts["util.serialize_bytes"] / ops, "bytes/op"});
  const double lookups = counts["sim.memo_hits"] + counts["sim.memo_misses"];
  metrics.push_back({"sim.memo_lookups", lookups / ops, "count/op"});
  metrics.push_back({"sim.memo_hit_ratio",
                     lookups > 0 ? counts["sim.memo_hits"] / lookups : 0.0,
                     "ratio"});
  return metrics;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\":[";
  const std::vector<Tracer::Span>& spans = tracer.spans();
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"id\":%zu,\"op\":%d,\"parent\":%d,\"name\":\"%s\","
                  "\"begin_s\":%.9f,\"end_s\":%.9f,\"phase\":%s}",
                  i ? "," : "", i, s.op, s.parent, s.name, s.begin_s, s.end_s,
                  s.phase ? "true" : "false");
    out << line;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run(const Args& args) {
  std::vector<double> setup_s;
  std::vector<double> setup_kernel_s;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Workload> untraced;  // traced runs: the same inputs, untraced
  for (int i = 0; i < kSetups; ++i) {
    setup_kernel_s.push_back(kernel_seconds());
    const Clock::time_point start = Clock::now();
    workload = make(args);
    workload->warm_up();
    setup_s.push_back(seconds_since(start));
  }
  if (args.trace) {
    untraced = make(args);
    untraced->warm_up();
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  // A KnownFault (a fixed input on which a fault of the program shows) or
  // any exception the program throws fails the operation; a failed check
  // makes the outputs incorrect. An untraced twin is not counted.
  const auto attempt = [&](Workload& w, std::size_t round, std::size_t index,
                           Tracer& t, bool counted) -> std::optional<OpOutcome> {
    if (counted) ++attempted;
    try {
      return w.run(round, index, t);
    } catch (const CheckFailure& e) {
      correct = false;
      std::cerr << "check failed: " << e.what() << "\n";
    } catch (const std::exception& e) {
      if (counted) {
        ++failed;
        std::cerr << "operation failed: " << e.what() << "\n";
      }
    }
    return std::nullopt;
  };

  // One entry per input: the calibration kernel's time just before it, and
  // the wall time of its (traced) operation and of its untraced twin, or
  // -1 where the operation did not complete.
  std::vector<double> kernel_s;
  std::vector<double> wall_s;
  std::vector<double> untraced_s;
  std::vector<std::size_t> input_of_op;  // traced operation -> input
  std::vector<double> samples;
  double sim_tasks = 0;
  const std::size_t sample_rounds = workload->sample_rounds();
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;
       round < sample_rounds || seconds_since(start) < args.seconds; ++round) {
    for (std::size_t i = 0; i < workload->round_size(); ++i) {
      kernel_s.push_back(kernel_seconds());
      const bool twin_first = kernel_s.size() % 2 == 1;
      const auto run_twin = [&] {
        const std::optional<OpOutcome> twin =
            attempt(*untraced, round, i, off, false);
        untraced_s.push_back(twin ? twin->wall_s : -1);
      };
      if (untraced && twin_first) run_twin();
      const std::optional<OpOutcome> out =
          attempt(*workload, round, i, tracer, true);
      if (untraced && !twin_first) run_twin();
      while (input_of_op.size() < static_cast<std::size_t>(tracer.ops())) {
        input_of_op.push_back(kernel_s.size() - 1);
      }
      wall_s.push_back(out ? out->wall_s : -1);
      if (!out) continue;
      sim_tasks += out->sim_tasks;
      if (round < sample_rounds && out->throughput > 0) {
        samples.push_back(out->throughput);
      }
    }
  }

  // Operation times scaled to the reference host (see calibration.h).
  const std::vector<double> factors = speed_factors(kernel_s);
  std::vector<double> op_s;
  std::vector<double> raw_op_s;
  double traced_total = 0;
  double untraced_total = 0;
  for (std::size_t j = 0; j < wall_s.size(); ++j) {
    if (wall_s[j] < 0) continue;
    op_s.push_back(wall_s[j] * factors[j]);
    raw_op_s.push_back(wall_s[j]);
    if (untraced && untraced_s[j] >= 0) {
      traced_total += wall_s[j] * factors[j];
      untraced_total += untraced_s[j] * factors[j];
    }
  }

  std::vector<Metric> metrics;
  if (op_s.empty() || samples.empty()) {
    correct = false;
  } else if (!args.trace) {
    double total_s = 0;
    for (double s : op_s) total_s += s;
    double log_sum = 0;
    for (double s : samples) log_sum += std::log(s);
    const double setup_factor = kReferenceKernelS / median(setup_kernel_s);
    metrics = {
        {"setup_s", median(setup_s) * setup_factor, "s"},
        {"op_ms_p50", harrell_davis(op_s, 0.5) * 1e3, "ms"},
        {"op_ms_p90", harrell_davis(op_s, 0.9) * 1e3, "ms"},
        {"sim_tasks_per_s", sim_tasks / total_s, "tasks/s"},
        {"sim_samples_per_s",
         std::exp(log_sum / static_cast<double>(samples.size())), "samples/s"},
        {"peak_rss_mib",
         static_cast<double>(holmes::obs::current_peak_rss_bytes() -
                             kernel_bytes()) /
             (1 << 20),
         "MiB"},
    };
  } else {
    std::vector<double> op_factors;
    for (std::size_t input : input_of_op) op_factors.push_back(factors[input]);
    try {
      metrics = layer_metrics(tracer, op_factors);
    } catch (const CheckFailure& e) {
      correct = false;
      std::cerr << "check failed: " << e.what() << "\n";
    }
    metrics.push_back({"trace.overhead_pct",
                       untraced_total > 0
                           ? (traced_total - untraced_total) / untraced_total * 100
                           : 0.0,
                       "%"});
    metrics.push_back({"host.kernel_ms", median(kernel_s) * 1e3, "ms"});
    metrics.push_back({"host.op_ms_p50", median(raw_op_s) * 1e3, "ms"});
    if (!args.spans.empty()) write_spans(args.spans, tracer);
  }

  for (const Metric& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu, outputs %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "correct" : "INCORRECT");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
