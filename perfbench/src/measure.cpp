#include "measure.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
  }
  return total;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const auto& item) { return item.first == name; });
}

std::int64_t SpanRecorder::open(const std::string& name, std::int64_t parent,
                                std::int64_t trial) {
  const double t0 = seconds_since(origin_);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, trial, t0, -1.0});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int64_t id) {
  const double t1 = seconds_since(origin_);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.t1 >= 0.0) out.push_back((s.t1 - s.t0) * 1e3);
  }
  return out;
}

std::vector<SelfTime> self_times(const std::vector<SpanRecord>& spans) {
  // Children of one span run one after another on the caller's thread, so
  // their summed duration is the part of the parent they cover.
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && s.t1 >= 0.0) {
      child_ms[static_cast<std::size_t>(s.parent)] += (s.t1 - s.t0) * 1e3;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.t1 < 0.0) continue;
    SelfTime& st = by_name[s.name];
    st.name = s.name;
    st.count += 1;
    const double dur = (s.t1 - s.t0) * 1e3;
    st.total_ms += dur;
    st.self_ms += dur - child_ms[i];
  }
  std::vector<SelfTime> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

}  // namespace perfbench
