// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public functions: name, start, end, the span that caused it, and how many
// operations the call covered. Every thread owns one SpanLog (no locking);
// the logs are merged after the threads join and written out as JSON lines
// when the run ends. Per-layer timings are medians over these spans.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";     ///< "<layer>.<call>", a string literal
  std::int64_t t0 = 0;       ///< steady-clock ns
  std::int64_t t1 = 0;
  std::uint64_t id = 0;      ///< unique across threads
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t count = 1;   ///< operations the span covers
};

class SpanLog {
 public:
  /// Spans kept per thread; later ones are dropped, which bounds the
  /// memory and the file a long traced run leaves behind.
  static constexpr std::size_t kMaxSpans = 20000;

  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}

  /// Records a finished span and returns its id.
  std::uint64_t add(const char* name, std::int64_t t0, std::int64_t t1,
                    std::uint64_t parent = 0, std::uint32_t count = 1) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(thread_) << 40) | ++next_;
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({name, t0, t1, id, parent, count});
    }
    return id;
  }

  /// Reserves an id for a span whose end is recorded later with close().
  std::uint64_t open() {
    return (static_cast<std::uint64_t>(thread_) << 40) | ++next_;
  }
  void close(std::uint64_t id, const char* name, std::int64_t t0,
             std::int64_t t1, std::uint64_t parent = 0) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({name, t0, t1, id, parent, 1});
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint32_t thread() const { return thread_; }

 private:
  std::uint32_t thread_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Median per-operation duration (ns) of the spans named `name`; the
/// second value is the number of spans.
inline std::pair<double, std::size_t> median_span_ns(
    const std::vector<const SpanLog*>& logs, const std::string& name) {
  std::vector<double> per_op;
  for (const auto* log : logs) {
    for (const auto& span : log->spans()) {
      if (name == span.name) {
        per_op.push_back(static_cast<double>(span.t1 - span.t0) /
                         static_cast<double>(span.count));
      }
    }
  }
  if (per_op.empty()) return {0.0, 0};
  const auto mid =
      per_op.begin() + static_cast<std::ptrdiff_t>(per_op.size() / 2);
  std::nth_element(per_op.begin(), mid, per_op.end());
  return {*mid, per_op.size()};
}

/// Writes every span as one JSON object per line. Returns false when the
/// file cannot be written.
inline bool write_spans(const std::vector<const SpanLog*>& logs,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto* log : logs) {
    for (const auto& s : log->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"thread\":" << log->thread()
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1
          << ",\"count\":" << s.count << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
