// Spans for the traced run. The benchmark wraps its calls into each
// library layer in a Span; nothing inside the library is instrumented.
// Spans stay in memory until the run ends, then go to a Chrome trace-event
// file (load it in chrome://tracing or Perfetto) and a per-layer table of
// self time: a span's duration minus the part its child spans cover.
#ifndef VETL_PERFBENCH_TRACER_H_
#define VETL_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vetl {

struct SpanRecord {
  const char* layer = "";  ///< library layer the wrapped call belongs to
  const char* name = "";   ///< the wrapped public function
  int64_t start_ns = 0;    ///< since the tracer was created
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;     ///< enclosing span on the same thread, -1 at top
  uint32_t thread = 0;     ///< small per-thread number for the trace viewer
};

struct LayerTime {
  size_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Records spans from any thread. A disabled tracer records nothing, so the
/// same workload code serves the untraced and the traced run.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  /// `layer` and `name` must be string literals (they are kept by pointer).
  int64_t Begin(const char* layer, const char* name);
  /// Closes the span `id` opened by Begin on the same thread.
  void End(int64_t id);

  /// Self and total time per layer.
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Writes every span as a Chrome trace-event JSON document.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const;

 private:
  int64_t NowNs() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(layer, name)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// A Span that also appends its duration in microseconds to `sink_us`, for
/// percentiles over one call site.
class TimedSpan {
 public:
  TimedSpan(Tracer* tracer, const char* layer, const char* name,
            std::vector<double>* sink_us)
      : span_(tracer, layer, name),
        sink_us_(sink_us),
        t0_(std::chrono::steady_clock::now()) {}
  ~TimedSpan() {
    sink_us_->push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0_)
                            .count());
  }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

 private:
  Span span_;
  std::vector<double>* sink_us_;
  std::chrono::steady_clock::time_point t0_;
};

/// Prints the per-layer self-time table to stdout.
void PrintLayerTable(const std::string& title, const Tracer& tracer);

}  // namespace vetl

#endif  // VETL_PERFBENCH_TRACER_H_
