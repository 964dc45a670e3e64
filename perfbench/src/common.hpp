// Shared pieces of the benchmark program: the run options, the result a
// workload hands back to main(), seeded payload fields and the clock.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string sim_reference = "perfbench/sim_reference.txt";
};

/// One reported number: value, unit and how many samples it rests on
/// (`beyond` counts samples above a percentile; 0 otherwise).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (breakdowns,
  /// output-check findings).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::size_t beyond = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       beyond});
  }
  void fail_check(const std::string& why) {
    correct = false;
    notes.push_back("OUTPUT CHECK FAILED: " + why);
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the seed mixer for every generated input.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A seeded float field shaped like a simulation variable: a smooth
/// two-mode wave around a temperature-like offset plus small uniform
/// noise, so codecs see realistic (modest) compression ratios. The same
/// (seed, stream) always yields the same bytes.
inline std::vector<float> seeded_field(std::uint64_t seed,
                                       std::uint64_t stream, std::size_t n) {
  std::uint64_t s = mix64(seed ^ mix64(stream));
  auto u01 = [&s] {
    s = mix64(s);
    return static_cast<double>(s >> 11) * (1.0 / 9007199254740992.0);
  };
  const double kTwoPi = 6.283185307179586;
  const double offset = 250.0 + 50.0 * u01();
  const double amp = 1.0 + 9.0 * u01();
  const double freq = 1.0 + 3.0 * u01();
  const double phase = kTwoPi * u01();
  const double noise = 0.01 * amp;
  std::vector<float> out(n);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) * inv_n;
    const double v = offset + amp * std::sin(kTwoPi * freq * x + phase) +
                     0.5 * amp * std::cos(kTwoPi * 3.0 * freq * x) +
                     noise * (u01() - 0.5);
    out[i] = static_cast<float>(v);
  }
  return out;
}

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();

RunResult run_middleware(const Options& opts);
RunResult run_sim_paper(const Options& opts);
/// Prints the canonical-seed simulator results in the reference format.
int record_sim_reference();

}  // namespace perfbench
