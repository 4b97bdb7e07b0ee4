/// \file recover.cpp
/// `recover`: one operation is one core::run_fault_injection experiment
/// under Holmes on a hybrid IB + RoCE topology, the way `holmes_cli inject`
/// runs one: parse the topology and a seeded `holmes.fault_plan.v1`
/// document, lint the plan against the topology, run the experiment and
/// render the recovery report as JSON and text. Before the experiment, the
/// operation also simulates the static Holmes plan without and with the
/// lowered faults on a sim::SimMemo the whole run shares, as
/// `holmes_cli check --fault-plan` does: the fault-free run is memoized, a
/// faulted run with degradation windows bypasses the memo, and the two must
/// reproduce the experiment's fault-free and faulted legs.
///
/// A round holds the 2x straggler the repository's acceptance bar speaks
/// of, then, on each of the 1+1, 2+2 and 3+3 node hybrid topologies, one
/// seeded plan of each kind: a whole-node straggler of seeded slowdown, a
/// node loss with checkpointing, a straggler under NIC degradation windows,
/// and all of these at once, and last the same 2x straggler on a fixed
/// input where its recovery bar fails, counted as a failed operation.
/// Single-rank stragglers, windows without a straggler and the 2x
/// straggler on seeded inputs are left out: their checks fail on some seeds
/// only (see the README). This is the only workload on the
/// sim::RateTimeline executor path, the memo bypass and the measured-speed
/// re-planning loop.

#include <optional>
#include <sstream>

#include "core/faults.h"
#include "core/plan.h"
#include "core/training_sim.h"
#include "model/gpt_zoo.h"
#include "net/topology_parse.h"
#include "obs/self_profile.h"
#include "sim/scenario_runner.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace holmes;

enum Kind { kStraggler2x, kStraggler, kNodeLoss, kDegradedStraggler, kMixed };
constexpr const char* kKindNames[] = {"2x straggler", "straggler", "node loss",
                                      "degraded straggler", "mixed"};

struct Experiment {
  std::string spec;
  int group = 1;
  Kind kind = kStraggler2x;
  std::string plan_json;
  /// A fixed input on which a check fails because of a known fault.
  bool known_fault = false;
};

std::string num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

/// A seeded fault plan of `kind` for a hybrid topology of `a` IB and `b`
/// RoCE nodes, written out here so that parsing it is part of the work.
std::string fault_plan(Kind kind, int a, int b, SplitMix& rng) {
  const auto cluster = [&] { return static_cast<int>(rng.below(2)); };
  const auto node = [&](int c) {
    return static_cast<int>(rng.below(static_cast<std::size_t>(c == 0 ? a : b)));
  };
  std::vector<std::string> stragglers;
  std::vector<std::string> windows;
  std::string failure = R"({"at_s":-1,"cluster":0,"node_in_cluster":0})";
  std::string checkpoint =
      R"({"period_iterations":0,"save_s":0,"restart_s":0})";
  if (kind == kStraggler2x) {
    stragglers.push_back(
        R"({"rank":-1,"cluster":1,"node_in_cluster":0,"slowdown":2})");
  }
  if (kind == kStraggler || kind == kDegradedStraggler || kind == kMixed) {
    const int c = cluster();
    stragglers.push_back(R"({"rank":-1,"cluster":)" + std::to_string(c) +
                         R"(,"node_in_cluster":)" + std::to_string(node(c)) +
                         R"(,"slowdown":)" + num(rng.grid(1.5, 3.0)) + "}");
  }
  if (kind == kDegradedStraggler || kind == kMixed) {
    const std::size_t count = 1 + rng.below(2);
    for (std::size_t i = 0; i < count; ++i) {
      const int c = cluster();
      const int n = rng.below(3) == 0 ? -1 : node(c);
      const double begin = rng.grid(0.0, 20.0);
      const double end = begin + rng.grid(5.0, 40.0);
      windows.push_back(R"({"cluster":)" + std::to_string(c) +
                        R"(,"node_in_cluster":)" + std::to_string(n) +
                        R"(,"begin_s":)" + num(begin) + R"(,"end_s":)" +
                        num(end) + R"(,"bandwidth_factor":)" +
                        num(rng.grid(0.2, 0.8)) + "}");
    }
  }
  if (kind == kNodeLoss || kind == kMixed) {
    const int c = cluster();
    failure = R"({"at_s":)" + num(rng.grid(5.0, 40.0)) + R"(,"cluster":)" +
              std::to_string(c) + R"(,"node_in_cluster":)" +
              std::to_string(node(c)) + "}";
    checkpoint = R"({"period_iterations":)" + std::to_string(1 + rng.below(2)) +
                 R"(,"save_s":)" + num(rng.grid(0.1, 1.0)) +
                 R"(,"restart_s":)" + num(rng.grid(1.0, 5.0)) + "}";
  }
  const auto list = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i ? "," : "") + items[i];
    }
    return out + "]";
  };
  return R"({"schema":"holmes.fault_plan.v1","seed":)" +
         std::to_string(rng.below(1 << 20)) + R"(,"nic_degradation":)" +
         list(windows) + R"(,"stragglers":)" + list(stragglers) +
         R"(,"node_failure":)" + failure + R"(,"checkpoint":)" + checkpoint +
         "}";
}

/// Seeded kinds per round, each run once on every hybrid size.
constexpr Kind kSeededKinds[] = {kStraggler, kNodeLoss, kDegradedStraggler,
                                 kMixed};
constexpr int kSizes = 3;  ///< 1+1, 2+2 and 3+3 nodes

class Recover final : public Workload {
 public:
  explicit Recover(std::uint64_t seed) : rng_(seed) {}

  std::size_t round_size() const override {
    return 2 + std::size(kSeededKinds) * kSizes;
  }
  std::size_t sample_rounds() const override { return 1; }

  OpOutcome run(std::size_t round, std::size_t index, Tracer& tracer) override {
    // Rounds are drawn as the run reaches them, in order, so a run's inputs
    // depend only on the seed.
    while (experiments_.size() <= round * round_size() + index) draw_round();
    return experiment(experiments_[round * round_size() + index], memo_,
                      tracer);
  }

  void warm_up() override {
    Tracer off(false);
    SplitMix rng(0);
    sim::SimMemo memo;
    experiment({"1x8:ib+1x8:roce", 1, kDegradedStraggler,
                fault_plan(kDegradedStraggler, 1, 1, rng)},
               memo, off);
  }

 private:
  void draw_round() {
    const std::size_t round = experiments_.size() / round_size();
    // The 2x straggler runs on the repository's acceptance fixture; the
    // README lists the hybrid topologies and groups where its >= 0.5
    // recovery bar does not hold.
    experiments_.push_back({"2x8:ib+2x8:roce", 1, kStraggler2x,
                            fault_plan(kStraggler2x, 2, 2, rng_)});
    // A Latin square over (kind, size) -> group: every round runs each of
    // Table 2's groups 1 to 4 once on every size, and the pairing of kinds
    // with groups rotates from round to round.
    for (std::size_t k = 0; k < std::size(kSeededKinds); ++k) {
      for (int size = 1; size <= kSizes; ++size) {
        const int group = 1 + static_cast<int>((k + size + round) % 4);
        experiments_.push_back(
            {std::to_string(size) + "x8:ib+" + std::to_string(size) + "x8:roce",
             group, kSeededKinds[k],
             fault_plan(kSeededKinds[k], size, size, rng_)});
      }
    }
    // The 2x straggler where re-planning recovers 0.448 of its loss.
    SplitMix fixed(0);
    experiments_.push_back({"1x8:ib+1x8:roce", 1, kStraggler2x,
                            fault_plan(kStraggler2x, 1, 1, fixed), true});
  }

  static OpOutcome experiment(const Experiment& e, sim::SimMemo& memo,
                              Tracer& tracer) {
    OpOutcome out;
    core::FaultPlan plan;
    verify::LintReport lint;
    core::RecoveryReport report;
    obs::SelfProfile engine;
    core::IterationMetrics fault_free;
    core::IterationMetrics faulted;
    {
      OpScope op(tracer);
      const Clock::time_point start = Clock::now();
      std::optional<net::Topology> topo;
      {
        Scope span(tracer, "net.parse_topology");
        topo = net::parse_topology(e.spec);
      }
      {
        Scope span(tracer, "core.fault_parse");
        plan = core::parse_fault_plan(e.plan_json);
      }
      {
        Scope span(tracer, "core.fault_lint");
        lint = core::lint_fault_plan(plan, *topo);
      }
      std::optional<core::TrainingPlan> static_plan;
      {
        Scope span(tracer, "core.plan");
        static_plan.emplace(core::Planner(core::FrameworkConfig::holmes())
                                .plan(*topo, model::parameter_group(e.group)));
      }
      core::Perturbations perturb;
      {
        Scope span(tracer, "core.fault_lower");
        perturb = core::lower_fault_plan(plan, *topo);
      }
      {
        Scope span(tracer, "core.sim_run");
        core::TrainingSimulator simulator;
        simulator.set_memo(&memo);
        fault_free = profiled(
            tracer, [&] { return simulator.run(*topo, *static_plan); });
        faulted = profiled(
            tracer, [&] { return simulator.run(*topo, *static_plan, 3, perturb); });
        // Moves the memo's hit and miss tallies to the self-profile, as
        // core::autotune does after a sweep.
        profiled(tracer, [&] {
          memo.flush_profile();
          return 0;
        });
      }
      {
        Scope span(tracer, "core.fault_injection");
        // The simulated task count comes from the engine self-profile; a
        // traced run's operation already has one installed.
        std::optional<obs::SelfProfiler> local;
        if (!tracer.enabled()) local.emplace();
        const obs::SelfProfile before =
            local ? local->snapshot() : tracer.snapshot();
        core::RecoveryOptions options;
        options.group_id = e.group;
        report = core::run_fault_injection(*topo, plan, options);
        const obs::SelfProfile after =
            local ? local->snapshot() : tracer.snapshot();
        if (!local) tracer.attribute(before, after);
        engine = obs::delta(before, after);
      }
      {
        Scope span(tracer, "util.serialize");
        std::ostringstream json;
        std::ostringstream text;
        core::write_recovery_report_json(json, report);
        core::print_recovery_report(text, report);
        tracer.count("util.serialize_bytes",
                     static_cast<double>(json.tellp() + text.tellp()));
      }
      out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    }
    out.sim_tasks = static_cast<double>(engine.counters.tasks_created +
                                        fault_free.task_count +
                                        faulted.task_count);
    out.throughput = report.replanned.throughput;
    try {
      check(e, plan, lint, report, fault_free, faulted);
    } catch (const CheckFailure& failure) {
      if (e.known_fault) throw KnownFault(failure.what());
      throw;
    }
    return out;
  }

  static void check(const Experiment& e, const core::FaultPlan& plan,
                    const verify::LintReport& lint,
                    const core::RecoveryReport& report,
                    const core::IterationMetrics& fault_free,
                    const core::IterationMetrics& faulted) {
    const std::string what = std::string(kKindNames[e.kind]) + " on " + e.spec +
                             " group " + std::to_string(e.group) + " plan " +
                             e.plan_json;
    // Serializing is idempotent: what the writer prints parses back to
    // the same plan.
    const std::string canonical = core::fault_plan_json(plan);
    require(core::fault_plan_json(core::parse_fault_plan(canonical)) == canonical,
            what + ": fault plan does not round-trip");
    require(lint.ok() && report.valid, what + ": fault plan failed its lint");
    // HV504: no recovered run beats its own fault-free flow lower bound.
    require(!report.lint.fired("HV504"), what + ": HV504 fired");
    // The static plan simulated on the shared memo gives the experiment's
    // fault-free leg, and under the faults (the memo bypassed) its faulted
    // leg: a faulted run that aliased a memoized fault-free one would not.
    require(fault_free.throughput == report.fault_free.throughput &&
                faulted.throughput == report.faulted.throughput,
            what + ": the static plan on the shared memo disagrees with the "
                   "experiment's fault-free or faulted leg");
    require(report.replanned.throughput <= report.fault_free.throughput,
            what + ": re-planned throughput beats the fault-free run");
    if (e.kind == kStraggler2x) {
      require(report.recovery_ratio >= 0.5,
              what + ": re-planning recovered less than half of a 2x "
                     "straggler's loss (" + num(report.recovery_ratio) + ")");
    }
  }

  SplitMix rng_;
  std::vector<Experiment> experiments_;
  sim::SimMemo memo_;
};

}  // namespace

std::unique_ptr<Workload> make_recover(std::uint64_t seed) {
  return std::make_unique<Recover>(seed);
}

}  // namespace perfbench
