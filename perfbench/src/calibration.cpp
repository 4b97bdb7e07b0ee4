#include "calibration.h"

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <queue>
#include <unordered_map>
#include <utility>

#include "workload.h"

namespace perfbench {
namespace {

volatile std::uint64_t g_sink = 0;

/// Everything the kernel touches, allocated and touched once, before the
/// first operation, and never freed: a 16 MiB random cycle (chasing it
/// misses the caches the way the simulator's large graphs and timelines
/// do), a 2 MiB streaming buffer, and an arena that serves the kernel's
/// allocations, so the kernel never calls into the heap the program uses.
struct KernelState {
  std::vector<std::uint32_t> cycle;
  std::vector<double> stream;
  std::vector<std::byte> arena;

  KernelState()
      : cycle(std::size_t{1} << 22),
        stream(std::size_t{1} << 18, 1.0),
        arena(std::size_t{4} << 20, std::byte{1}) {
    std::uint64_t x = 1;
    for (std::uint32_t& v : cycle) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<std::uint32_t>((x >> 33) % cycle.size());
    }
  }

  std::size_t bytes() const {
    return cycle.size() * sizeof(std::uint32_t) +
           stream.size() * sizeof(double) + arena.size();
  }

  /// Touches every line of the kernel's memory in order, so the caches and
  /// TLB hold the same share of it whatever the operation before left
  /// there, and resets the streaming buffer.
  void pre_touch() {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < cycle.size(); i += 16) sum += cycle[i];
    std::fill(stream.begin(), stream.end(), 1.0);
    for (std::size_t i = 0; i < arena.size(); i += 64) {
      sum += static_cast<std::uint64_t>(arena[i]);
    }
    g_sink = sum;
  }
};

KernelState& state() {
  static KernelState s;
  return s;
}

}  // namespace

double kernel_seconds() {
  KernelState& s = state();
  s.pre_touch();

  const Clock::time_point start = Clock::now();
  std::pmr::monotonic_buffer_resource arena(s.arena.data(), s.arena.size(),
                                            std::pmr::null_memory_resource());
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  using Event = std::pair<double, std::uint32_t>;
  std::pmr::vector<Event> heap(&arena);
  heap.reserve(520);
  std::priority_queue<Event, std::pmr::vector<Event>> events(std::less<Event>{},
                                                              std::move(heap));
  std::pmr::unordered_map<std::uint32_t, std::uint32_t> counts(&arena);
  counts.reserve(8192);
  std::pmr::vector<std::pmr::vector<int>> buffers(&arena);
  buffers.reserve(260);
  for (int i = 0; i < 24000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    events.push({static_cast<double>(x % 100000), static_cast<std::uint32_t>(x)});
    if (events.size() > 512) {
      acc += events.top().second;
      events.pop();
    }
    ++counts[static_cast<std::uint32_t>(x % 8192)];
    if (i % 16 == 0) {
      buffers.emplace_back(static_cast<std::size_t>(x % 64 + 1), i);
      if (buffers.size() > 256) buffers.clear();
    }
  }
  std::uint32_t at = static_cast<std::uint32_t>(acc % s.cycle.size());
  for (int i = 0; i < 40000; ++i) at = s.cycle[at];
  for (double& v : s.stream) v = v * 1.0000001 + static_cast<double>(at & 1);
  g_sink = acc + counts.size() + at + static_cast<std::uint64_t>(s.stream.back());
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t kernel_bytes() { return static_cast<std::int64_t>(state().bytes()); }

std::vector<double> speed_factors(const std::vector<double>& kernel_s) {
  std::vector<double> factors(kernel_s.size());
  for (std::size_t i = 0; i < kernel_s.size(); ++i) {
    const std::size_t lo = i < 2 ? 0 : i - 2;
    const std::size_t hi = std::min(kernel_s.size(), i + 3);
    factors[i] = kReferenceKernelS /
                 median({kernel_s.begin() + static_cast<std::ptrdiff_t>(lo),
                         kernel_s.begin() + static_cast<std::ptrdiff_t>(hi)});
  }
  return factors;
}

}  // namespace perfbench
