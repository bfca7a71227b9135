// The benchmark's own statistics: medians, quartiles, tail percentiles and
// parallel efficiency. Kept apart from the library's util/stats so a change
// to the library can never change how the benchmark summarizes it, and
// checked against hand-computed values by SelfTest() before every run.
#ifndef VETL_PERFBENCH_STATS_H_
#define VETL_PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace vetl {

/// Middle value (mean of the two middle values for an even count); 0 for an
/// empty sample.
double Median(std::vector<double> v);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& v);

/// First quartile, median and third quartile by the exclusive method —
/// the same cut points as Python's statistics.quantiles(v, n=4), which the
/// compare tool uses. Needs at least two samples (zeros otherwise).
std::array<double, 3> Quartiles(std::vector<double> v);

/// The p-th percentile (0..100), linearly interpolated between closest
/// ranks. 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// How many of n samples lie beyond the p-th percentile: n - ceil(n * p/100).
size_t SamplesBeyond(size_t n, double p);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer it would be the maximum of a handful of samples.
inline constexpr size_t kMinTailSamples = 10;

/// T(1 worker) / (workers * T(workers)): 1.0 is perfect scaling.
double ParallelEfficiency(double t1_s, double tw_s, size_t workers);

/// Checks every function above against hand-computed values. Returns false
/// and describes the first mismatch in `failure`.
bool SelfTest(std::string* failure);

}  // namespace vetl

#endif  // VETL_PERFBENCH_STATS_H_
