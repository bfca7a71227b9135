#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "stats.h"
#include "video/content_process.h"

namespace vetl {

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Count(const std::string& kind, uint64_t n, uint64_t failed_n) {
  for (Ops& o : ops_) {
    if (o.kind == kind) {
      o.attempted += n;
      o.failed += failed_n;
      return;
    }
  }
  ops_.push_back({kind, n, failed_n});
}

std::string Report::Operations() const {
  std::string out = "operations:";
  for (const Ops& o : ops_) {
    out += " " + o.kind + " " + std::to_string(o.attempted) + " (" +
           std::to_string(o.failed) + " failed)";
  }
  return out;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  uint64_t attempted = 0, failed = 0;
  for (const Ops& o : ops_) {
    attempted += o.attempted;
    failed += o.failed;
  }
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    // A non-finite value is not JSON; it also means a broken measurement.
    double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

StealClock::Ticks StealClock::ReadTicks() {
  Ticks t;
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen("/proc/stat", "r"),
                                         &std::fclose);
  if (f == nullptr) return t;
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f.get(), "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                  &v[7]) != 8) {
    return t;
  }
  for (unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double StealClock::NetSeconds() const {
  double wall = SecondsSince(t0_);
  Ticks now = ReadTicks();
  if (now.total <= ticks0_.total || now.steal < ticks0_.steal) return wall;
  double share = static_cast<double>(now.steal - ticks0_.steal) /
                 static_cast<double>(now.total - ticks0_.total);
  return wall * (1.0 - std::min(share, 0.9));
}

void PrintRates(const std::string& workload, const std::vector<double>& net,
                const std::vector<double>& wall) {
  std::array<double, 3> n = Quartiles(net);
  std::array<double, 3> w = Quartiles(wall);
  if (net.size() < 2) {
    n.fill(Median(net));
    w.fill(Median(wall));
  }
  std::printf("%s segments/s over %zu rounds, q1/median/q3: %.0f/%.0f/%.0f "
              "net of stolen time, %.0f/%.0f/%.0f on wall time\n",
              workload.c_str(), net.size(), n[0], Median(net), n[2], w[0],
              Median(wall), w[2]);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 over (seed, salt): distinct salts give unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t WorkerCount() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

int64_t IntervalsIn(double duration_s, double plan_interval_s) {
  return static_cast<int64_t>(std::ceil(duration_s / plan_interval_s - 1e-9));
}

bool SameExceptTrace(const sky::core::EngineResult& a,
                     const sky::core::EngineResult& b) {
  sky::core::EngineResult x = a;
  sky::core::EngineResult y = b;
  x.trace.clear();
  y.trace.clear();
  return sky::core::EngineResultsIdentical(x, y);
}

void CheckStream(Report* report, const std::string& label,
                 const sky::core::EngineResult& r, const StreamBounds& bounds,
                 bool check_cloud) {
  report->Check(static_cast<int64_t>(r.segments) == bounds.segments,
                label + ": " + std::to_string(r.segments) +
                    " segments, expected duration / segment length = " +
                    std::to_string(bounds.segments));
  report->Check(r.overflow_events == 0,
                label + ": " + std::to_string(r.overflow_events) +
                    " buffer overflow events");
  if (check_cloud) {
    report->Check(r.cloud_usd <= bounds.cloud_cap_usd * (1.0 + 1e-9) + 1e-12,
                  label + ": cloud spend " + std::to_string(r.cloud_usd) +
                      " USD exceeds budget x intervals " +
                      std::to_string(bounds.cloud_cap_usd));
  }
  report->Check(
      r.onprem_core_seconds <= bounds.onprem_cap_core_s * (1.0 + 1e-9),
      label + ": on-prem " + std::to_string(r.onprem_core_seconds) +
          " core-s exceeds cores x (duration + final backlog) " +
          std::to_string(bounds.onprem_cap_core_s));
  double mean = r.segments == 0
                    ? 0.0
                    : r.total_quality / static_cast<double>(r.segments);
  report->Check(r.mean_quality == mean && mean > 0.0 && mean <= 1.0,
                label + ": mean quality is not total / segments in (0, 1]");
}

double CheckQualityRecompute(Report* report, const std::string& label,
                             const sky::core::Workload& workload,
                             const sky::core::OfflineModel& model,
                             const sky::core::EngineResult& r, bool full) {
  const double seg = model.segment_seconds;
  const sky::video::ContentProcess& content = workload.content_process();
  double sum = 0.0;
  size_t mismatches = 0;
  for (const sky::core::TracePoint& p : r.trace) {
    double index = std::round(p.t / seg);
    double q = workload.TrueQuality(model.configs[p.config_idx],
                                    content.At((index + 0.5) * seg));
    if (std::fabs(q - p.quality) > 1e-12) ++mismatches;
    sum += q;
  }
  report->Check(mismatches == 0,
                label + ": " + std::to_string(mismatches) +
                    " traced segments whose recomputed true quality differs");
  report->Check(!r.trace.empty(), label + ": no traced segments to recompute");
  if (full) {
    report->Check(r.trace.size() == r.segments,
                  label + ": trace holds " + std::to_string(r.trace.size()) +
                      " points for " + std::to_string(r.segments) +
                      " segments");
    double mean = sum / static_cast<double>(std::max<size_t>(1, r.trace.size()));
    report->Check(std::fabs(mean - r.mean_quality) <= 1e-9,
                  label + ": recomputed mean quality " + std::to_string(mean) +
                      " != reported " + std::to_string(r.mean_quality));
  }
  return sum;
}

bool SameAlpha(const sky::core::KnobPlan& a, const sky::core::KnobPlan& b) {
  if (a.alpha.rows() != b.alpha.rows() || a.alpha.cols() != b.alpha.cols()) {
    return false;
  }
  for (size_t c = 0; c < a.alpha.rows(); ++c) {
    for (size_t k = 0; k < a.alpha.cols(); ++k) {
      if (a.alpha.At(c, k) != b.alpha.At(c, k)) return false;
    }
  }
  return true;
}

void CheckPlan(Report* report, const std::string& label,
               const sky::core::KnobPlan& plan, double budget,
               const sky::core::KnobPlan& fallback) {
  bool rows_ok = plan.alpha.rows() > 0;
  for (size_t c = 0; c < plan.alpha.rows(); ++c) {
    double sum = 0.0;
    for (size_t k = 0; k < plan.alpha.cols(); ++k) {
      double a = plan.alpha.At(c, k);
      if (a < -1e-12) rows_ok = false;
      sum += a;
    }
    if (std::fabs(sum - 1.0) > 1e-9) rows_ok = false;
  }
  report->Check(rows_ok, label + ": plan rows are not distributions");
  if (!SameAlpha(plan, fallback)) {
    report->Check(plan.expected_work <= budget * (1.0 + 1e-9) + 1e-12,
                  label + ": plan expects " +
                      std::to_string(plan.expected_work) +
                      " core-s/s over the budget " + std::to_string(budget));
  }
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

}  // namespace vetl
