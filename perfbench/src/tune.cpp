/// \file tune.cpp
/// `tune`: one operation is one core::autotune layout sweep under Holmes,
/// followed by planning and linting the winning layout, as "which layout
/// should I run?" is answered. One sim::SimMemo is shared by every sweep of
/// a run.
///
/// The pool is (topology of 2 to 4 nodes, Table 2 group) pairs. A step
/// sweeps kGroups pairs not swept before in the run, one per group, with
/// the cluster sizes spread evenly, and then kRepeats pairs swept earlier,
/// so a fixed kRepeats / (kGroups + kRepeats) of the sweeps find all their
/// candidates in the memo. A round is kMemoRounds steps sharing one memo,
/// in which each group is swept once on each node count, so every run
/// sweeps the same mix of models and sizes.
///
/// Traced runs sweep serially: the engine self-profile only sees work on
/// the thread that installed it, and core::autotune simulates on a worker
/// pool. The serial sweep enumerates the same layouts and makes the same
/// public calls per candidate (Planner::plan, then TrainingSimulator::run on
/// the shared memo) on the calling thread, and filters and sorts the
/// ranking the same way; it must be kept in step with core::autotune.

#include <algorithm>
#include <optional>

#include "core/autotune.h"
#include "core/framework.h"
#include "core/plan.h"
#include "core/preflight.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "model/memory.h"
#include "net/topology_parse.h"
#include "sim/scenario_runner.h"
#include "util/error.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace holmes;

/// core::autotune's worker threads: fixed, so every host runs the same
/// sweep, and no more than the smallest host the benchmark targets has.
constexpr std::size_t kWorkers = 2;
/// A step sweeps each of Table 2's first kGroups groups (the 3.6B and
/// 7.5B models) on a topology it has not been swept on, then kRepeats
/// pairs swept before.
constexpr std::size_t kGroups = 6;
constexpr std::size_t kRepeats = 2;
/// Steps that share one memo: a round. The memo keeps every result it is
/// given, about 15 MiB per sweep, so every round starts a fresh one to
/// bound its memory; repeats come from the current round. In its three
/// steps each group is swept once on each node count, so only the repeats
/// find their candidates in the memo.
constexpr std::size_t kMemoRounds = 3;
constexpr std::size_t kStep = kGroups + kRepeats;
constexpr int kMaxPipeline = 4;
constexpr int kIterations = 3;

core::TuneOptions tune_options(sim::SimMemo* memo) {
  core::TuneOptions options;
  options.iterations = kIterations;
  options.max_pipeline = kMaxPipeline;
  options.threads = kWorkers;
  options.memo = memo;
  return options;
}

struct Pair {
  std::string spec;
  int group = 1;
};

class Tune final : public Workload {
 public:
  Tune(std::uint64_t seed, bool serial) : serial_(serial), rng_(seed) {
    const std::size_t base = rng_.below(3);
    for (std::size_t i = 0; i < kGroups; ++i) {
      std::vector<std::vector<std::string>> by_size(3);
      for (int nodes = 2; nodes <= 4; ++nodes) {
        std::vector<std::string>& specs = by_size[static_cast<std::size_t>(nodes - 2)];
        append_topologies(nodes, specs);
        rng_.shuffle(specs);
      }
      topologies_.emplace_back(std::move(by_size), base + i);
    }
  }

  std::size_t round_size() const override { return kStep * kMemoRounds; }
  std::size_t sample_rounds() const override { return 1; }

  OpOutcome run(std::size_t round, std::size_t index, Tracer& tracer) override {
    // Rounds are drawn as the run reaches them, in order, so a run's inputs
    // depend only on the seed.
    const std::size_t at = round * round_size() + index;
    while (order_.size() <= at) {
      const std::size_t r = order_.size() / kStep;
      const std::size_t period_start = r / kMemoRounds * kMemoRounds * kStep;
      for (std::size_t i = 0; i < kGroups; ++i) {
        order_.push_back({topologies_[i].at(r), static_cast<int>(i) + 1});
      }
      for (std::size_t i = 0; i < kRepeats; ++i) {
        order_.push_back(
            order_[period_start + rng_.below(order_.size() - period_start)]);
      }
    }
    if (index == 0) memo_.clear();
    OpOutcome out = sweep(order_[at], memo_, tracer);
    if (index % kStep >= kGroups) out.throughput = 0;  // counted when first swept
    return out;
  }

  void warm_up() override {
    sim::SimMemo memo;
    Tracer off(false);
    sweep({"1x8:ib+1x8:roce", 1}, memo, off);
  }

 private:
  OpOutcome sweep(const Pair& pair, sim::SimMemo& memo, Tracer& tracer) const {
    const model::ParameterGroup& group = model::parameter_group(pair.group);
    const core::FrameworkConfig framework = core::FrameworkConfig::holmes();
    OpOutcome out;
    std::optional<net::Topology> topo;
    std::vector<core::TuneCandidate> ranking;
    std::optional<core::TrainingPlan> best;
    verify::LintReport lint;
    {
      OpScope op(tracer);
      const Clock::time_point start = Clock::now();
      {
        Scope span(tracer, "net.parse_topology");
        topo = net::parse_topology(pair.spec);
      }
      ranking = serial_ ? serial_sweep(framework, *topo, group, memo, tracer)
                        : core::autotune(framework, *topo, group,
                                         tune_options(&memo));
      {
        Scope span(tracer, "core.plan");
        best.emplace(
            core::Planner(framework).plan(*topo, variant(group, ranking[0])));
      }
      {
        Scope span(tracer, "verify.plan_lint");
        lint = core::lint_training_plan(*topo, *best);
      }
      out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    }
    for (const core::TuneCandidate& c : ranking) {
      out.sim_tasks += static_cast<double>(c.metrics.task_count);
    }
    out.throughput = ranking[0].metrics.throughput;
    check(*topo, *best, ranking, lint,
          pair.spec + " group " + std::to_string(pair.group));
    return out;
  }

  static model::ParameterGroup variant(const model::ParameterGroup& group,
                                       const core::TuneCandidate& c) {
    model::ParameterGroup v = group;
    v.tensor_parallel = c.tensor;
    v.pipeline_parallel = c.pipeline;
    return v;
  }

  /// core::autotune's sweep on the calling thread. It must track
  /// src/core/autotune.cpp step for step: the same layout enumeration
  /// (divisibility, then the memory budget), the same calls per candidate
  /// inside the same try scope, the memo flushed to the self-profile, the
  /// same throughput > 0 filter and the same sort.
  static std::vector<core::TuneCandidate> serial_sweep(
      const core::FrameworkConfig& framework, const net::Topology& topo,
      const model::ParameterGroup& group, sim::SimMemo& memo, Tracer& tracer) {
    const core::TuneOptions options = tune_options(&memo);
    const int n = topo.world_size();
    const int gpus = topo.gpus_per_node();
    std::vector<core::TuneCandidate> candidates;
    for (int t = 1; t <= gpus; ++t) {
      if (gpus % t != 0 || n % t != 0) continue;
      for (int p = 1; p <= std::min(kMaxPipeline, group.config.layers); ++p) {
        if (n % (t * p) != 0) continue;
        const int d = n / (t * p);
        if (group.batch_size %
                (static_cast<std::int64_t>(d) * group.micro_batch_size) !=
            0) {
          continue;
        }
        const Bytes memory =
            model::estimate_device_memory(
                group.config, (group.config.layers + p - 1) / p, t,
                group.micro_batch_size, std::min(p, 8),
                framework.dp_sync.shards_optimizer() ? d : 1, {},
                framework.dp_sync.shards_weights() ? d : 1)
                .total();
        if (memory > options.device_memory) continue;
        candidates.push_back({t, p, d, {}, memory});
      }
    }
    if (candidates.empty()) throw ConfigError("no feasible layout");
    for (core::TuneCandidate& c : candidates) {
      try {
        std::optional<core::TrainingPlan> plan;
        {
          Scope span(tracer, "core.plan");
          plan.emplace(core::Planner(framework).plan(topo, variant(group, c)));
        }
        Scope span(tracer, "core.sim_run");
        c.metrics = profiled(tracer, [&] {
          core::TrainingSimulator simulator;
          simulator.set_memo(options.memo);
          return simulator.run(topo, *plan, options.iterations);
        });
      } catch (const Error&) {
        // Layouts the planner rejects drop out of the ranking.
      }
    }
    // core::autotune flushes the memo's tallies to the calling thread's
    // self-profile after each sweep.
    profiled(tracer, [&] {
      options.memo->flush_profile();
      return 0;
    });
    std::vector<core::TuneCandidate> ranked;
    for (const core::TuneCandidate& c : candidates) {
      if (c.metrics.throughput > 0) ranked.push_back(c);
    }
    tracer.count("core.autotune_candidates", static_cast<double>(candidates.size()));
    tracer.count("core.autotune_rejected",
                 static_cast<double>(candidates.size() - ranked.size()));
    if (ranked.empty()) throw ConfigError("every candidate layout failed to plan");
    std::sort(ranked.begin(), ranked.end(),
              [](const core::TuneCandidate& a, const core::TuneCandidate& b) {
                return a.metrics.throughput > b.metrics.throughput;
              });
    return ranked;
  }

  static void check(const net::Topology& topo, const core::TrainingPlan& best,
                    const std::vector<core::TuneCandidate>& ranking,
                    const verify::LintReport& lint, const std::string& what) {
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      const core::TuneCandidate& c = ranking[i];
      require(c.tensor * c.pipeline * c.data == topo.world_size(),
              what + ": layout t*p*d differs from the world size");
      require(i == 0 ||
                  ranking[i - 1].metrics.throughput >= c.metrics.throughput,
              what + ": ranking is not sorted by throughput");
    }
    // The winner simulated again, without the memo, reads the same.
    const core::IterationMetrics& memoized = ranking[0].metrics;
    const core::IterationMetrics fresh =
        core::TrainingSimulator{}.run(topo, best, kIterations);
    require(fresh.iteration_time == memoized.iteration_time &&
                fresh.throughput == memoized.throughput &&
                fresh.tflops_per_gpu == memoized.tflops_per_gpu &&
                fresh.task_count == memoized.task_count,
            what + ": the best layout re-simulated without the memo differs");
    require(lint.ok(), what + ": the best Holmes layout raised an error");
  }

  bool serial_;
  SplitMix rng_;
  std::vector<Rotation> topologies_;  ///< per group
  std::vector<Pair> order_;
  sim::SimMemo memo_;
};

}  // namespace

std::unique_ptr<Workload> make_tune(std::uint64_t seed, bool serial) {
  return std::make_unique<Tune>(seed, serial);
}

}  // namespace perfbench
