#include "tracer.h"

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

void Tracer::begin_op() {
  profiler_.emplace();
  stack_.clear();
  stack_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back({"op", -1, ops_, now(), 0, false});
}

void Tracer::end_op() {
  spans_[static_cast<std::size_t>(stack_.front())].end_s = now();
  stack_.clear();
  profiler_.reset();
  ++ops_;
}

int Tracer::open(const char* name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, stack_.empty() ? -1 : stack_.back(), ops_, now(), 0, false});
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

obs::SelfProfile Tracer::snapshot() const {
  return profiler_ ? profiler_->snapshot() : obs::SelfProfile{};
}

void Tracer::attribute(const obs::SelfProfile& before,
                       const obs::SelfProfile& after) {
  const obs::SelfProfile d = obs::delta(before, after);
  if (!stack_.empty()) {
    const int parent = stack_.back();
    const double begin = spans_[static_cast<std::size_t>(parent)].begin_s;
    const std::pair<const char*, double> phases[] = {
        {"core.lower", d.phases.graph_build_s},
        {"sim.event_loop", d.phases.event_loop_s},
        {"obs.accounting", d.phases.accounting_s},
    };
    for (const auto& [name, seconds] : phases) {
      if (seconds > 0) {
        spans_.push_back({name, parent, ops_, begin, begin + seconds, true});
      }
    }
  }
  const auto& c = d.counters;
  count("sim.tasks", static_cast<double>(c.tasks_created));
  count("sim.deps", static_cast<double>(c.deps_added));
  count("sim.ready_pops", static_cast<double>(c.ready_pops));
  count("core.cost_model_evals", static_cast<double>(c.cost_model_evals));
  count("sim.memo_hits", static_cast<double>(c.memo_hits));
  count("sim.memo_misses", static_cast<double>(c.memo_misses));
  count("sim.memo_bypass", static_cast<double>(c.memo_bypass));
}

void Tracer::count(const std::string& name, double n) {
  if (enabled_) counters_[name] += n;
}

}  // namespace perfbench
