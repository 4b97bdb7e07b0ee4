/// \file analyze.cpp
/// `analyze`: one cold diagnosis query per operation, the way
/// `holmes_cli stats`, `explain`, `timeline` and `lint` run one: parse the
/// topology, plan and lint the plan, simulate with artifacts, derive the
/// run summary, critical path, timeline and artifact lints, and serialize
/// the reports as JSON and text to memory.
///
/// Scenarios are (topology, Table 2 group, framework) triples and never
/// repeat within a run, so a cache keyed on the scenario gains nothing
/// here. A round runs every (group, framework) pair once on each cluster
/// size the group fits, so every round asks for the same mix of models,
/// frameworks and sizes; the seed picks the NIC kinds and cluster splits.
///
/// Holmes' scenarios use only topologies whose clusters hold whole
/// pipeline stages: on the others its plan lints with errors, and which
/// scenarios meet them would depend on the seed. The baselines use every
/// topology. Each round ends with one fixed query on which that fault
/// shows, counted as a failed operation (see the README).

#include <map>
#include <optional>
#include <sstream>

#include "core/framework.h"
#include "core/plan.h"
#include "core/preflight.h"
#include "core/run_stats.h"
#include "core/timeline_report.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/topology_parse.h"
#include "obs/critical_path.h"
#include "obs/summary.h"
#include "verify/diagnostics.h"
#include "verify/flow_lints.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace holmes;

struct Framework {
  const char* name;
  core::FrameworkConfig (*make)();
};

constexpr Framework kFrameworks[] = {
    {"holmes", &core::FrameworkConfig::holmes},
    {"megatron-lm", &core::FrameworkConfig::megatron_lm},
    {"megatron-deepspeed", &core::FrameworkConfig::megatron_deepspeed},
    {"megatron-llama", &core::FrameworkConfig::megatron_llama},
};

/// Eq. (6) of the paper, computed here rather than by the model layer:
/// F = 96 B s l h^2 (1 + s / (6 h) + V / (16 l h)).
double eq6_flops(const model::ParameterGroup& g) {
  const double b = static_cast<double>(g.batch_size);
  const double s = g.config.seq_len;
  const double l = g.config.layers;
  const double h = g.config.hidden;
  const double v = g.config.vocab;
  return 96.0 * b * s * l * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * l * h));
}

/// The fixed query on which Holmes' plan lints with errors: group 1's two
/// stages of 16 GPUs do not lay out on clusters of 8 and 24 GPUs.
constexpr const char* kKnownFaultSpec = "1x8:ib+3x8:roce";
constexpr int kKnownFaultGroup = 1;

/// Whether Table 2's degrees of `g` lay out on `nodes` 8-GPU nodes.
bool fits(const model::ParameterGroup& g, int nodes) {
  const int world = nodes * 8;
  const int tp = g.tensor_parallel * g.pipeline_parallel;
  if (world % tp != 0) return false;
  const std::int64_t d = world / tp;
  return g.batch_size % (d * g.micro_batch_size) == 0;
}

/// Whether every cluster of `spec` holds whole pipeline stages of `g`.
/// Holmes cannot align its groups to clusters otherwise, and its plan then
/// lints with errors (see the README).
bool aligned(const model::ParameterGroup& g, const std::string& spec) {
  const net::Topology topo = net::parse_topology(spec);
  const int stage = topo.world_size() / g.pipeline_parallel;
  for (int c = 0; c < topo.cluster_count(); ++c) {
    if (topo.ranks_in_cluster(c).size() % static_cast<std::size_t>(stage) != 0) {
      return false;
    }
  }
  return true;
}

class Analyze final : public Workload {
 public:
  explicit Analyze(std::uint64_t seed) {
    SplitMix rng(seed);
    const auto& groups = model::table2_groups();
    for (std::size_t f = 0; f < std::size(kFrameworks); ++f) {
      const std::size_t base = rng.below(3);
      // One seeded order of the topology kinds per framework, rotated by
      // one per group: in a round the groups of a framework run on
      // different kinds, so every round has nearly the same mix of kinds.
      std::map<std::size_t, std::vector<std::size_t>> orders;  // by count
      for (std::size_t i = 0; i < groups.size(); ++i) {
        std::vector<std::vector<std::string>> by_size;
        for (int nodes = 4; nodes <= 8; ++nodes) {
          if (!fits(groups[i], nodes)) continue;
          std::vector<std::string> all;
          std::vector<std::string> specs;
          append_topologies(nodes, all);
          for (const std::string& spec : all) {
            if (f != 0 || aligned(groups[i], spec)) specs.push_back(spec);
          }
          std::vector<std::size_t>& order = orders[specs.size()];
          if (order.empty()) {
            for (std::size_t k = 0; k < specs.size(); ++k) order.push_back(k);
            rng.shuffle(order);
          }
          std::vector<std::string> ordered;
          for (std::size_t k = 0; k < specs.size(); ++k) {
            ordered.push_back(specs[order[(k + i) % specs.size()]]);
          }
          by_size.push_back(std::move(ordered));
        }
        strata_.push_back({groups[i].id, f, Rotation(std::move(by_size), base + i)});
      }
    }
    // A round runs every stratum once on each cluster size it fits.
    for (std::size_t use = 0; use < 3; ++use) {
      for (std::size_t i = 0; i < strata_.size(); ++i) {
        if (use < strata_[i].topologies.sizes()) slots_.emplace_back(i, use);
      }
    }
  }

  std::size_t round_size() const override { return slots_.size() + 1; }
  // Two rounds' Holmes scenarios (36) make up sim_samples_per_s.
  std::size_t sample_rounds() const override { return 2; }

  OpOutcome run(std::size_t round, std::size_t index, Tracer& tracer) override {
    if (index == slots_.size()) {
      return query(kKnownFaultSpec, kKnownFaultGroup, kFrameworks[0], tracer,
                   true);
    }
    const auto [stratum, use] = slots_[index];
    const Stratum& s = strata_[stratum];
    // A scenario repeats only once a size's topology list wraps, after 6
    // rounds (9 for Table 2's p = 3 groups, which fit only 6 nodes), more
    // than a run of the benchmark's length makes.
    return query(s.topologies.at(round * s.topologies.sizes() + use), s.group,
                 kFrameworks[s.framework], tracer);
  }

  void warm_up() override {
    Tracer off(false);
    query("1x8:ib+1x8:roce", 1, kFrameworks[0], off);
  }

 private:
  struct Stratum {
    int group;
    std::size_t framework;
    Rotation topologies;
  };

  static OpOutcome query(const std::string& spec, int group_id,
                         const Framework& framework, Tracer& tracer,
                         bool known_fault = false) {
    const model::ParameterGroup& group = model::parameter_group(group_id);
    OpOutcome out;
    std::optional<net::Topology> topo;
    std::optional<core::TrainingPlan> plan;
    core::SimArtifacts artifacts;
    core::IterationMetrics m;
    obs::CriticalPath path;
    core::TimelineSummary timeline;
    verify::LintReport lint;
    {
      OpScope op(tracer);
      const Clock::time_point start = Clock::now();
      {
        Scope span(tracer, "net.parse_topology");
        topo = net::parse_topology(spec);
      }
      {
        Scope span(tracer, "core.plan");
        plan.emplace(core::Planner(framework.make()).plan(*topo, group));
      }
      {
        Scope span(tracer, "verify.plan_lint");
        lint = core::lint_training_plan(*topo, *plan);
      }
      {
        Scope span(tracer, "core.sim_run");
        m = profiled(tracer, [&] {
          return core::TrainingSimulator{}.run(*topo, *plan, 3, {}, nullptr,
                                               &artifacts);
        });
      }
      obs::RunSummary summary;
      {
        Scope span(tracer, "obs.run_summary");
        summary = core::build_run_summary(*topo, *plan, m, artifacts);
      }
      obs::CriticalPathSummary critical;
      {
        Scope span(tracer, "obs.critical_path");
        critical = core::build_critical_path_summary(*topo, *plan, m, artifacts,
                                                     {}, &path);
      }
      {
        Scope span(tracer, "obs.timeline");
        timeline = core::build_timeline_summary(*topo, *plan, m, artifacts);
      }
      {
        Scope span(tracer, "verify.artifact_lint");
        lint.merge(core::lint_artifacts(artifacts, &*topo));
      }
      {
        Scope span(tracer, "util.serialize");
        std::ostringstream json;
        std::ostringstream text;
        obs::write_json(json, summary);
        obs::write_json(json, critical);
        core::write_timeline_json(json, timeline);
        verify::write_json(json, lint);
        obs::print_text(text, critical);
        core::print_timeline(text, timeline);
        verify::print_text(text, lint);
        tracer.count("util.serialize_bytes",
                     static_cast<double>(json.tellp() + text.tellp()));
      }
      out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    }
    out.sim_tasks = static_cast<double>(m.task_count);
    const bool holmes_plan = framework.make == &core::FrameworkConfig::holmes;
    if (holmes_plan) out.throughput = m.throughput;
    try {
      check(*topo, *plan, artifacts, m, path, timeline, lint, holmes_plan,
            spec + " group " + std::to_string(group_id) + " " + framework.name);
    } catch (const CheckFailure& e) {
      if (known_fault) throw KnownFault(e.what());
      throw;
    }
    return out;
  }

  static void check(const net::Topology& topo, const core::TrainingPlan& plan,
                    const core::SimArtifacts& artifacts,
                    const core::IterationMetrics& m,
                    const obs::CriticalPath& path,
                    const core::TimelineSummary& timeline,
                    const verify::LintReport& lint, bool holmes_plan,
                    const std::string& what) {
    require(artifacts.result.has_value(), what + ": no simulation result");
    const double makespan = artifacts.result->makespan();

    // The critical path's segments tile [0, makespan] with no gap.
    require(!path.segments.empty() && path.segments.front().begin == 0 &&
                path.segments.back().end == makespan &&
                path.makespan == makespan,
            what + ": critical path does not span the makespan");
    for (std::size_t i = 1; i < path.segments.size(); ++i) {
      require(path.segments[i - 1].end == path.segments[i].begin,
              what + ": critical-path segments leave a gap or overlap");
    }

    // Every resource's busy curve integrates to its accounted busy time.
    const obs::Timeline& t = timeline.timeline;
    for (const obs::ResourceTimeline& r : t.resources) {
      require(close_to(r.busy.integral(t.window.begin, t.window.end),
                       r.busy_total),
              what + ": busy integral of " + r.name +
                  " differs from its accounted busy time");
    }

    // The simulation-free flow bound cannot exceed the simulated makespan.
    const verify::FlowAnalysis flow = verify::analyze_flow(artifacts.graph);
    require(flow.valid && flow.makespan_bound_s <= makespan * (1 + 1e-9),
            what + ": flow lower bound exceeds the makespan");

    // Reported TFLOPS x GPUs x iteration time is Eq. (6)'s FLOPs.
    const double flops = eq6_flops(plan.workload);
    require(close_to(flops, plan.workload.config.flops_per_iteration(
                                plan.workload.batch_size)) &&
                close_to(flops, m.tflops_per_gpu * 1e12 * topo.world_size() *
                                    m.iteration_time),
            what + ": TFLOPS disagree with Eq. (6)");

    // Error verdicts are outputs for the baselines (HV106 on Megatron-LM
    // group 3, say), but no Holmes plan may raise one.
    if (holmes_plan) {
      require(lint.ok() && timeline.lint.ok(),
              what + ": Holmes plan raised an error diagnostic");
    }
  }

  std::vector<Stratum> strata_;
  std::vector<std::pair<std::size_t, std::size_t>> slots_;  ///< (stratum, use)
};

}  // namespace

std::unique_ptr<Workload> make_analyze(std::uint64_t seed) {
  return std::make_unique<Analyze>(seed);
}

}  // namespace perfbench
