#include "tracer.h"

#include <atomic>
#include <cstdio>
#include <memory>

namespace vetl {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* layer, const char* name) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.layer = layer;
  rec.name = name;
  rec.parent = open_spans.empty() ? -1 : open_spans.back();
  rec.thread = ThreadNumber();
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.id = static_cast<int64_t>(spans_.size());
    rec.start_ns = NowNs();
    spans_.push_back(rec);
  }
  open_spans.push_back(rec.id);
  return rec.id;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

std::map<std::string, LayerTime> Tracer::LayerTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& s : spans_) {
    LayerTime& t = out[s.layer];
    int64_t dur = s.end_ns - s.start_ns;
    ++t.spans;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - child_ns[static_cast<size_t>(s.id)]) *
                 1e-6;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                         &std::fclose);
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f.get());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.thread,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void PrintLayerTable(const std::string& title, const Tracer& tracer) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-12s %10s %12s %12s\n", "layer", "spans", "total ms",
              "self ms");
  for (const auto& [layer, t] : tracer.LayerTimes()) {
    std::printf("  %-12s %10zu %12.3f %12.3f\n", layer.c_str(), t.spans,
                t.total_ms, t.self_ms);
  }
}

}  // namespace vetl
