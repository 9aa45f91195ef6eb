// Host-speed reference for the request-level benchmark.
//
// The benchmark runs on cores it shares with other tenants. Their load
// (busy hyperthread siblings, cache and memory traffic) moves the speed a
// request runs at by up to about 2x, over milliseconds and over minutes,
// and the guest sees none of it as steal time: thread CPU time rises with
// wall time. A timed figure therefore moves with the host as much as with
// the program.
//
// So next to every timed request the benchmark times a fixed reference
// kernel on every CPU the request runs on. It has three parts, each bound
// by one thing a busy neighbour takes away: a tight loop (instruction
// fetch, which a busy sibling halves), a pointer chase with a branch per
// step through a 256 KiB cycle (cache latency and branch recovery), and the
// same chase through a 32 MiB cycle (memory latency). The solver is bound
// by the same three, in proportions that differ by workload, so the kernel
// weighs them equally. Its speed relative to a fixed reference host scales
// a request's wall time:
//
//   reference seconds = wall seconds * relative speed,
//
// the time the request would take on the reference host. A program that
// does more work reads more reference seconds whatever the host does; a
// host that slows down leaves them about where they were. The kernel and
// the reference rates are fixed: changing either changes every figure.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"

namespace reqbench {

/// One cycle through 2^bits slots (Sattolo's shuffle under a fixed
/// xorshift), the same in every run.
[[nodiscard]] inline std::vector<std::uint32_t> make_cycle(unsigned bits) {
  std::vector<std::uint32_t> next(std::size_t{1} << bits);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  return next;
}

/// Steps per second of `steps` dependent loads through `next`, each with
/// a branch on the loaded value.
[[nodiscard]] inline double chase(const std::vector<std::uint32_t>& next,
                                  int steps) {
  using Clock = std::chrono::steady_clock;
  std::uint32_t u = 0;
  std::uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < steps; ++i) {
    u = next[u];
    if (u & 1u) {
      acc += u;
    } else {
      acc ^= u;
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  asm volatile("" : : "r"(acc));  // keep the branch work
  return steps / seconds;
}

/// Additions per second of a tight loop of dependent additions: one taken
/// branch per step, so it is bound by instruction fetch.
[[nodiscard]] inline double loop_rate() {
  constexpr std::uint64_t kSteps = 1 << 20;
  using Clock = std::chrono::steady_clock;
  std::uint64_t x = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x += 1;
    asm volatile("" : "+r"(x));
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(x) / seconds;
}

/// The three parts' rates on one CPU.
struct PartRates {
  double loop = 0;    // additions per second
  double cache = 0;   // steps per second through a cache-resident cycle
  double memory = 0;  // steps per second through a cycle in memory
};

inline PartRates part_rates() {
  // 256 KiB stays in the core's own cache once read through; 32 MiB is
  // sixteen times a core's L2, so its steps come from the shared last-level
  // cache and memory.
  static const std::vector<std::uint32_t> cache_cycle = make_cycle(16);
  static const std::vector<std::uint32_t> memory_cycle = make_cycle(23);
  std::uint32_t warm = 0;
  for (std::size_t i = 0; i < cache_cycle.size(); i += 16) {
    warm += cache_cycle[i];
  }
  asm volatile("" : : "r"(warm));
  PartRates out;
  out.loop = loop_rate();
  out.cache = chase(cache_cycle, 50'000);
  out.memory = chase(memory_cycle, 4'000);
  return out;
}

/// The parts' rates on the reference host: about what a 4-vCPU Sapphire
/// Rapids guest reaches when its neighbours are quiet.
inline constexpr PartRates kReferenceRates{1.8e9, 1.5e8, 5e6};

/// The host's speed relative to the reference, weighing the three parts
/// equally: 1 on the reference host, 0.5 on one that takes twice as long
/// for each.
[[nodiscard]] inline double relative_speed(const PartRates& r) {
  return 3.0 / (kReferenceRates.loop / r.loop +
                kReferenceRates.cache / r.cache +
                kReferenceRates.memory / r.memory);
}

/// Samples the speed of the CPUs a workload serves on: the calling thread
/// alone, or every lane of `pool` at once.
class HostClock {
 public:
  HostClock() = default;
  explicit HostClock(mmdiag::ThreadPool& pool) : pool_(&pool) {}

  /// The mean relative speed of `runs` kernel runs on each sampled CPU.
  [[nodiscard]] double sample(int runs = 1) {
    const std::size_t lanes = pool_ == nullptr ? 1 : pool_->size();
    const auto per_lane = static_cast<std::size_t>(runs);
    std::vector<double> rates(lanes * per_lane);
    const auto run = [&](unsigned, std::size_t lane) {
      for (std::size_t c = 0; c < per_lane; ++c) {
        rates[lane * per_lane + c] = relative_speed(part_rates());
      }
    };
    if (pool_ == nullptr) {
      run(0, 0);
    } else {
      pool_->parallel_for(lanes, run);
    }
    double sum = 0;
    for (const double r : rates) sum += r;
    return sum / static_cast<double>(rates.size());
  }

 private:
  mmdiag::ThreadPool* pool_ = nullptr;
};

/// Wall seconds between host samples `before` and `after`, at the
/// reference speed.
[[nodiscard]] inline double reference_seconds(double wall_s, double before,
                                              double after) {
  return wall_s * 0.5 * (before + after);
}

}  // namespace reqbench
