// Unit tests for perfbench/src/bench_math.hpp. Plain asserts-as-checks
// (no framework) so the benchmark package builds with nothing beyond a
// C++20 compiler:
//
//   cmake --build .bench_build --target perfbench_math_test
//   ./.bench_build/perfbench_math_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile_selects_nearest_rank_with_counts() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  const auto p50 = perfbench::percentile(xs, 50.0);
  CHECK(near(p50.value, 50.0));
  CHECK(p50.n == 100);
  CHECK(p50.beyond == 50);
  const auto p99 = perfbench::percentile(xs, 99.0);
  CHECK(near(p99.value, 99.0));
  CHECK(p99.beyond == 1);
  const auto p100 = perfbench::percentile(xs, 100.0);
  CHECK(near(p100.value, 100.0));
  CHECK(p100.beyond == 0);
  const auto p0 = perfbench::percentile(xs, 0.0);
  CHECK(near(p0.value, 1.0));
}

void test_percentile_small_and_empty_samples() {
  // p99 of 10 samples is the maximum: no sample lies beyond it.
  std::vector<double> ten = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  const auto p99 = perfbench::percentile(ten, 99.0);
  CHECK(near(p99.value, 9.0));
  CHECK(p99.beyond == 0);
  const auto p50 = perfbench::percentile(ten, 50.0);
  CHECK(near(p50.value, 3.0));  // 5th smallest of 1 1 2 3 3 4 5 5 6 9
  CHECK(p50.beyond == 5);
  const auto empty = perfbench::percentile({}, 50.0);
  CHECK(empty.n == 0 && empty.value == 0.0);
  CHECK(near(perfbench::median({7.0}), 7.0));
}

void test_self_time_subtracts_direct_children() {
  using perfbench::SpanRec;
  // Lane 1: a 10 s phase holding two calls (2 s and 3 s), the second
  // holding a 1 s grandchild; self = 10 - 2 - 3 = 5, 2, 3 - 1 = 2, 1.
  // Lane 2: an unrelated span overlapping in time, self = its length.
  std::vector<SpanRec> spans = {
      {1, 0, 0.0, 10.0}, {1, 1, 1.0, 2.0}, {1, 1, 4.0, 3.0},
      {1, 2, 5.0, 1.0},  {2, 3, 0.5, 8.0},
  };
  const auto self = perfbench::self_times(spans);
  CHECK(near(self[0], 5.0));
  CHECK(near(self[1], 2.0));
  CHECK(near(self[2], 2.0));
  CHECK(near(self[3], 1.0));
  CHECK(near(self[4], 8.0));
}

void test_self_time_disjoint_and_equal_start_spans() {
  using perfbench::SpanRec;
  // Back-to-back spans do not nest; a span starting with its parent at
  // the same instant is the shorter one's child.
  std::vector<SpanRec> spans = {
      {7, 0, 0.0, 1.0}, {7, 0, 1.0, 1.0},  // siblings, no parent
      {8, 0, 0.0, 4.0}, {8, 1, 0.0, 1.5},  // equal start: parent + child
  };
  const auto self = perfbench::self_times(spans);
  CHECK(near(self[0], 1.0));
  CHECK(near(self[1], 1.0));
  CHECK(near(self[2], 2.5));
  CHECK(near(self[3], 1.5));
}

void test_handoff_is_write_minus_floor() {
  CHECK(near(perfbench::handoff_over_floor(7.5, 0.12), 7.38));
  // A write faster than the floor is reported as measured (negative).
  CHECK(near(perfbench::handoff_over_floor(0.10, 0.12), -0.02));
}

}  // namespace

int main() {
  test_percentile_selects_nearest_rank_with_counts();
  test_percentile_small_and_empty_samples();
  test_self_time_subtracts_direct_children();
  test_self_time_disjoint_and_equal_start_spans();
  test_handoff_is_write_minus_floor();
  if (g_failures == 0) std::printf("perfbench math: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
