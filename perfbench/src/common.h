// Shared pieces of the three workloads: run arguments, the result report,
// seeds, and the property checks every workload applies to its outputs.
#ifndef VETL_PERFBENCH_COMMON_H_
#define VETL_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/offline.h"
#include "core/planner.h"
#include "core/workload.h"

namespace vetl {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What one run prints: correctness, operation counts and metrics. A failed
/// check is logged to stderr and turns `correct` false; it never aborts the
/// run, so every check reports.
class Report {
 public:
  /// Records one correctness check.
  void Check(bool ok, const std::string& what);
  /// Counts operations of one kind (segments, streams, opens, fetches):
  /// `n` attempted, `failed_n` of them failed.
  void Count(const std::string& kind, uint64_t n, uint64_t failed_n = 0);
  void Metric(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failed_checks_ == 0; }
  size_t checks() const { return checks_; }
  /// One line: attempted and failed operations per kind.
  std::string Operations() const;
  /// The one-line JSON result object.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  size_t checks_ = 0;
  size_t failed_checks_ = 0;
  struct Ops {
    std::string kind;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::vector<Ops> ops_;
  std::vector<Entry> metrics_;
};

/// Wall time net of the time the hypervisor ran other guests on this host's
/// processors. A shared virtual machine loses a varying share of its CPU
/// time that way (from none to a third for minutes at a time on the
/// reference host), which no change to the program can move; timing
/// metrics are reported on wall time net of it. The share is read from the
/// `steal` column of /proc/stat over all processors; where it cannot be
/// read, it is 0 and the wall time is returned unchanged.
class StealClock {
 public:
  StealClock() : t0_(Clock::now()), ticks0_(ReadTicks()) {}
  /// Seconds since construction, times (1 - stolen share of that time).
  double NetSeconds() const;

 private:
  struct Ticks {
    uint64_t total = 0;
    uint64_t steal = 0;
  };
  static Ticks ReadTicks();

  Clock::time_point t0_;
  Ticks ticks0_;
};

/// Prints the quartiles of the per-round throughput, net of stolen time
/// (what segments_per_s reports the median of) and on plain wall time.
void PrintRates(const std::string& workload, const std::vector<double>& net,
                const std::vector<double>& wall);

/// Deterministic per-purpose seed derived from the run's --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Peak resident set of this process (getrusage), MiB.
double PeakRssMiB();

/// Worker threads the benchmark may use: the machine's processor count.
size_t WorkerCount();

/// Plan intervals a run of `duration` spans (the last may be partial).
int64_t IntervalsIn(double duration_s, double plan_interval_s);

/// Equal on every EngineResult field except the trace.
bool SameExceptTrace(const sky::core::EngineResult& a,
                     const sky::core::EngineResult& b);

/// Properties every finished stream must have: the segment count is
/// duration / segment length, no buffer overflow, cloud spend within the
/// credits granted, and on-premise core-seconds within cores x the time the
/// processor was busy. That time is the duration plus the backlog the run
/// ends with (the buffer absorbs a backlog, so work can outlast the
/// stream): OnPremCap() below.
struct StreamBounds {
  int64_t segments = 0;
  double cloud_cap_usd = 0.0;
  double onprem_cap_core_s = 0.0;
};
inline double OnPremCap(int cores, double duration_s, double final_lag_s) {
  return static_cast<double>(cores) * (duration_s + final_lag_s);
}
void CheckStream(Report* report, const std::string& label,
                 const sky::core::EngineResult& r, const StreamBounds& bounds,
                 bool check_cloud = true);

/// Recomputes the true quality of every traced point from the workload's
/// own quality function (the configuration the run chose, the content at
/// the segment midpoint) and checks each value. With a trace of one point
/// per segment (`full` true) it also checks that the recomputed values
/// average to the result's mean quality. Returns the recomputed sum.
double CheckQualityRecompute(Report* report, const std::string& label,
                             const sky::core::Workload& workload,
                             const sky::core::OfflineModel& model,
                             const sky::core::EngineResult& r, bool full);

/// An installed plan's rows are distributions over the configurations and,
/// unless it is the all-cheapest fallback, its expected work fits `budget`.
void CheckPlan(Report* report, const std::string& label,
               const sky::core::KnobPlan& plan, double budget,
               const sky::core::KnobPlan& fallback);

/// True when both plans have bitwise-equal histograms.
bool SameAlpha(const sky::core::KnobPlan& a, const sky::core::KnobPlan& b);

/// File size in bytes, or -1.
int64_t FileBytes(const std::string& path);

}  // namespace vetl

#endif  // VETL_PERFBENCH_COMMON_H_
