#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

double span_seconds(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

}  // namespace

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point end) {
  Span span{name, id, parent, request, ns_since(origin_, start),
            ns_since(origin_, end)};
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

double Tracer::total_s(std::string_view name) const {
  return sum(durations_s(name));
}

std::vector<double> Tracer::durations_s(std::string_view name) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(span_seconds(s));
  }
  return out;
}

std::vector<double> Tracer::durations_under(std::string_view name,
                                            std::uint64_t parent) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.parent == parent && name == s.name) out.push_back(span_seconds(s));
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write spans to " + path);
  const std::lock_guard lock(mutex_);
  for (const Span& s : spans_) {
    auto v = dckpt::util::JsonValue::object();
    v.set("record", "span");
    v.set("name", s.name);
    v.set("id", s.id);
    v.set("parent", s.parent);
    v.set("request", s.request);
    v.set("start_ns", static_cast<std::uint64_t>(s.start_ns));
    v.set("end_ns", static_cast<std::uint64_t>(s.end_ns));
    file << v.dump() << '\n';
  }
  if (!file.flush()) throw std::runtime_error("short write to " + path);
}

void Outcome::fail(const std::string& why) {
  ++failed_;
  // Keep stderr readable when something fails in bulk.
  if (failed_ <= 20) std::cerr << "perfbench: FAILED: " << why << '\n';
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric " + name + " is not finite");
  }
  auto m = dckpt::util::JsonValue::object();
  m.set("value", value);
  m.set("unit", unit);
  metrics_.set(name, std::move(m));
}

void trace_overhead(double plain_ops_per_s, double traced_ops_per_s,
                    Outcome& out) {
  out.metric("trace.overhead.ops_per_s", traced_ops_per_s - plain_ops_per_s,
             "op/s");
  out.metric("trace.overhead_share", 1.0 - traced_ops_per_s / plain_ops_per_s,
             "ratio");
}

void finish_trace(Tracer& tracer, const Args& args, Outcome& out) {
  probe_util(tracer, out);
  probe_model(tracer, out);
  out.metric("trace.spans", static_cast<double>(tracer.size()), "count");
  if (!args.spans_out.empty()) tracer.write_jsonl(args.spans_out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

CpuTimes CpuTimes::now() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line: user nice system idle ... steal
  for (int field = 0; field < 8 && stat; ++field) {
    double ticks = 0.0;
    stat >> ticks;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double CpuTimes::steal_share_since(const CpuTimes& start) const {
  const double total_delta = total - start.total;
  return total_delta > 0.0 ? (steal - start.steal) / total_delta : 0.0;
}

double peak_rss_mib() {
  // VmHWM is the high-water mark of this address space. getrusage's
  // ru_maxrss would also count the launcher's image from before exec().
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
