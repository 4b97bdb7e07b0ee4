#pragma once

/// \file workload.h
/// The benchmark's workloads and what they share.
///
/// A run repeats rounds of operations until its time is up, and always
/// finishes the round it is in, so every run attempts whole rounds of the
/// same operations. Each operation is timed on its own; its outputs are
/// then checked against properties the method must have, outside the
/// timed interval.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

/// An output violated a property the method must have.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A check failed on one of the fixed inputs a workload keeps because a
/// known fault of the program shows on it (see the README). It fails the
/// operation, which counts in `failed`, instead of making the outputs
/// incorrect: the input does not depend on the seed and fails every time,
/// so every run fails the same share of its operations.
struct KnownFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `what` unless `ok`.
inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// True when `a` and `b` agree to a relative 1e-9.
inline bool close_to(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Median of a non-empty sample.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct OpOutcome {
  double wall_s = 0;     ///< host seconds of the operation, checks excluded
  double sim_tasks = 0;  ///< simulated tasks the operation lowered
  /// Modelled samples/s this operation adds to sim_samples_per_s; 0 when
  /// it adds none.
  double throughput = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operations per round.
  virtual std::size_t round_size() const = 0;

  /// Runs operation `index` of round `round` and checks its outputs.
  /// Throws CheckFailure when a check fails, KnownFault when one fails on a
  /// known-fault input, and any other exception when the operation itself
  /// fails.
  virtual OpOutcome run(std::size_t round, std::size_t index,
                        Tracer& tracer) = 0;

  /// One untimed operation on a fixed input outside the run's inputs, so
  /// lazy initialisation is done before timing starts.
  virtual void warm_up() = 0;

  /// Leading rounds whose modelled throughput makes up sim_samples_per_s.
  /// Every run completes them, however long they take, so the metric does
  /// not depend on the speed of the host.
  virtual std::size_t sample_rounds() const = 0;
};

std::unique_ptr<Workload> make_analyze(std::uint64_t seed);
/// `serial` runs each sweep's candidates on the calling thread instead of
/// through core::autotune's worker pool (traced runs; see tune.cpp).
std::unique_ptr<Workload> make_tune(std::uint64_t seed, bool serial);
std::unique_ptr<Workload> make_recover(std::uint64_t seed);

/// SplitMix64. The benchmark draws its inputs from its own generator so
/// that they stay the same when the library's generator changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform double in [lo, hi), on a 1/1024 grid so plans print exactly.
  double grid(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(below(1024)) / 1024.0;
  }
  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// The topologies one input stratum (say, a model) is run on, use after
/// use. The n-th use takes cluster size (offset + n) mod sizes, so any
/// sizes() consecutive uses cover every size once, and strata given
/// consecutive offsets spread the sizes evenly. Within a size the
/// topologies come in the given order and repeat only when it wraps.
class Rotation {
 public:
  Rotation(std::vector<std::vector<std::string>> by_size, std::size_t offset)
      : by_size_(std::move(by_size)), offset_(offset) {}

  std::size_t sizes() const { return by_size_.size(); }

  const std::string& at(std::size_t use) const {
    const std::vector<std::string>& specs = by_size_[(offset_ + use) % sizes()];
    return specs[(use / sizes()) % specs.size()];
  }

 private:
  std::vector<std::vector<std::string>> by_size_;
  std::size_t offset_;
};

/// Appends the topology specs of `nodes` 8-GPU nodes: every split of the
/// nodes into two clusters without a shared switch, IB + RoCE, IB + IB and
/// RoCE + RoCE, and one homogeneous IB, RoCE and Ethernet cluster.
void append_topologies(int nodes, std::vector<std::string>& specs);

}  // namespace perfbench
