#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace vetl {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::array<double, 3> Quartiles(std::vector<double> v) {
  std::array<double, 3> q = {0.0, 0.0, 0.0};
  size_t n = v.size();
  if (n < 2) return q;
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive") with n = 4 cuts over
  // m = len + 1 positions: j = i*m // 4 clamped to [1, len-1],
  // delta = i*m - 4*j (may leave [0, 4] after clamping: Python then
  // extrapolates, and so do we), value = (v[j-1]*(4-delta) + v[j]*delta)/4.
  const int64_t len = static_cast<int64_t>(n);
  const int64_t m = len + 1;
  for (int64_t i = 1; i < 4; ++i) {
    int64_t j = std::clamp<int64_t>(i * m / 4, 1, len - 1);
    int64_t delta = i * m - 4 * j;
    q[static_cast<size_t>(i - 1)] =
        (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

size_t SamplesBeyond(size_t n, double p) {
  double at = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  size_t below = static_cast<size_t>(std::max(0.0, at));
  return below >= n ? 0 : n - below;
}

double ParallelEfficiency(double t1_s, double tw_s, size_t workers) {
  if (tw_s <= 0.0 || workers == 0) return 0.0;
  return t1_s / (static_cast<double>(workers) * tw_s);
}

namespace {

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want));
}

}  // namespace

bool SelfTest(std::string* failure) {
  char buf[160];
  auto expect = [&](const char* what, double got, double want) {
    if (Near(got, want)) return true;
    std::snprintf(buf, sizeof(buf), "%s = %.17g, expected %.17g", what, got,
                  want);
    *failure = buf;
    return false;
  };
  std::vector<double> ten = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  std::array<double, 3> q10 = Quartiles(ten);
  std::array<double, 3> q5 = Quartiles({5, 1, 4, 2, 3});
  std::array<double, 3> q2 = Quartiles({2, 1});
  // Hand values: the median of 1..10 is 5.5 and of 1,2,3 is 2; the
  // exclusive-method quartiles of 1..10 sit at positions 2.75, 5.5 and
  // 8.25, of 1..5 at 1.5, 3, 4.5, and of {1, 2} at 0.75, 1.5, 2.25 (the
  // outer cuts extrapolate, exactly as Python does); the 90th percentile
  // of 1..100 is at rank 0.9 * 99 = 89.1 -> 90.1, and 100 samples leave
  // exactly 10 beyond it while 99 leave 9.
  return expect("Median(1..10)", Median(ten), 5.5) &&
         expect("Median{3,1,2}", Median({3, 1, 2}), 2.0) &&
         expect("Mean(1..10)", Mean(ten), 5.5) &&
         expect("Q1(1..10)", q10[0], 2.75) &&
         expect("Q2(1..10)", q10[1], 5.5) &&
         expect("Q3(1..10)", q10[2], 8.25) &&
         expect("Q1(1..5)", q5[0], 1.5) && expect("Q3(1..5)", q5[2], 4.5) &&
         expect("Q1{1,2}", q2[0], 0.75) &&
         expect("Q3{1,2}", q2[2], 2.25) &&
         expect("P90(1..100)", Percentile(hundred, 90.0), 90.1) &&
         expect("P50{10,20,30,40}", Percentile({40, 10, 30, 20}, 50.0), 25.0) &&
         expect("P0(1..100)", Percentile(hundred, 0.0), 1.0) &&
         expect("P100(1..100)", Percentile(hundred, 100.0), 100.0) &&
         expect("SamplesBeyond(100, 90)",
                static_cast<double>(SamplesBeyond(100, 90.0)), 10.0) &&
         expect("SamplesBeyond(99, 90)",
                static_cast<double>(SamplesBeyond(99, 90.0)), 9.0) &&
         expect("SamplesBeyond(1000, 99)",
                static_cast<double>(SamplesBeyond(1000, 99.0)), 10.0) &&
         expect("ParallelEfficiency(8 s, 2.5 s, 4)",
                ParallelEfficiency(8.0, 2.5, 4), 0.8) &&
         expect("ParallelEfficiency(3 s, 3 s, 1)",
                ParallelEfficiency(3.0, 3.0, 1), 1.0);
}

}  // namespace vetl
