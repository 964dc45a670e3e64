// The benchmark's own arithmetic: percentile selection with sample
// counts, span self time, and the handoff-over-floor difference. Kept
// header-only and free of program dependencies so
// tests/math_test.cpp pins it without building the middleware.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One percentile of a sample, with what it rests on: `n` samples in
/// total and `beyond` of them strictly above the selected rank.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample
/// (the minimum for p == 0). Returns a real sample, never an
/// interpolation, so a p99 over 100 samples is the 99th value and has
/// one sample beyond it. Empty input gives {0, 0, 0}.
inline Quantile percentile(std::vector<double> xs, double p) {
  Quantile q;
  q.n = xs.size();
  if (xs.empty()) return q;
  const double exact = p / 100.0 * static_cast<double>(xs.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank - 1),
                   xs.end());
  q.value = xs[rank - 1];
  q.beyond = xs.size() - rank;
  return q;
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0).value;
}

/// A finished span on one lane (a thread or entity). Spans on a lane
/// either nest or are disjoint; `t` is the start, `dur` the length.
struct SpanRec {
  std::uint64_t lane = 0;
  int name = 0;  // caller-defined span kind
  double t = 0.0;
  double dur = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children on the same lane cover. A child is a span
/// that starts and ends inside its parent; grandchildren are already
/// inside a child, so counting direct children counts each covered
/// instant once. Returned in the order of `spans`.
inline std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Lane, then start; at equal starts the longer span is the parent.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRec& x = spans[a];
    const SpanRec& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.t != y.t) return x.t < y.t;
    return x.dur > y.dur;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // stack of enclosing spans
  for (std::size_t idx : order) {
    const SpanRec& s = spans[idx];
    self[idx] = s.dur;
    while (!open.empty()) {
      const SpanRec& top = spans[open.back()];
      if (top.lane == s.lane && s.t + s.dur <= top.t + top.dur) break;
      open.pop_back();
    }
    if (!open.empty() && spans[open.back()].t <= s.t) {
      self[open.back()] -= s.dur;
    }
    open.push_back(idx);
  }
  for (double& v : self) v = std::max(0.0, v);
  return self;
}

/// Client-side handoff cost: what a write costs above the raw shared
/// memory floor (allocate + copy + notify + free) at the same payload
/// size. Negative when the write beats the floor, which the caller
/// reports as measured rather than clamping.
inline double handoff_over_floor(double write_p50, double floor_p50) {
  return write_p50 - floor_p50;
}

}  // namespace perfbench
