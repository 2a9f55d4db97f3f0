// Measurement helpers for the benchmark driver: clocks, rusage, order
// statistics, the span recorder of the traced run, and the metric sink the
// final JSON line is printed from.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Process CPU seconds (user + system), self plus reaped children.
double cpu_seconds();
/// CPU seconds of the calling thread.
double thread_cpu_seconds();
/// Peak resident set in MB: the driver, plus the largest reaped child.
double peak_rss_mb();

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metric set.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// A timed call into one layer, as seen from outside it: name, interval,
/// the span that caused it, and the trial it belongs to. Spans stay in
/// memory until the run writes them out.
struct SpanRecord {
  std::string name;
  std::int64_t parent = -1;
  std::int64_t trial = -1;
  double t0 = 0.0;  ///< seconds since the recorder's origin
  double t1 = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span and returns its id (to pass as a child's parent).
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::int64_t trial);
  void close(std::int64_t id);

  std::vector<SpanRecord> snapshot() const;

  /// Durations (ms) of every closed span with this name.
  std::vector<double> durations_ms(const std::string& name) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null recorder makes it free (the untraced path).
class Span {
 public:
  Span(SpanRecorder* rec, const std::string& name, std::int64_t parent,
       std::int64_t trial)
      : rec_(rec), id_(rec ? rec->open(name, parent, trial) : -1) {}
  ~Span() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::int64_t id_;
};

/// Per-name totals: count, summed duration and summed self time (duration
/// minus the part its direct children cover), in ms; sorted by self time.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SelfTime> self_times(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
