#pragma once

/// \file calibration.h
/// Host-speed calibration.
///
/// The hosts the benchmark runs on are shared, and their speed drifts: on a
/// 4-core Xeon VM, one fixed fault-injection experiment repeated for a
/// minute took from 54 to 113 ms, in slow and fast stretches of ten seconds
/// or so. A run's raw timings therefore say as much about the host's
/// neighbours as about the program. The benchmark runs a fixed kernel of
/// its own before every operation: a priority-queue event loop with
/// hash-map and allocation churn, then a cache-missing walk over 16 MiB and
/// a streaming pass, since the neighbours slow memory-bound code more than
/// the rest. It reports each operation's time scaled to a host on which the
/// kernel takes kReferenceKernelS:
///
///   scaled = wall * kReferenceKernelS / kernel,
///
/// where `kernel` is the median of the kernel timings nearest the
/// operation.
///
/// The kernel must not depend on what the program did before it, or a
/// change that grows the program's working set would slow the kernel and
/// scale its own regression away. So the kernel's memory is allocated once
/// and kept, its allocations come from an arena of its own rather than the
/// program's heap, and an untimed pass touches all of its memory in order
/// before every timed run, leaving the caches and TLB in the same state
/// whatever the operation before left there.

#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr double kReferenceKernelS = 0.005;

/// Runs the calibration kernel once and returns its wall seconds.
double kernel_seconds();

/// Bytes the kernel keeps resident (all of it is touched): subtracted from
/// the process's peak RSS so that peak_rss_mib counts the program alone.
std::int64_t kernel_bytes();

/// kReferenceKernelS over the median of the five timings centred on each
/// of `kernel_s` (fewer at the ends): the factor that scales a time measured
/// there to the reference host.
std::vector<double> speed_factors(const std::vector<double>& kernel_s);

}  // namespace perfbench
