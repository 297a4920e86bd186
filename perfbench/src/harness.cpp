#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, double* acc)
    : tracer_(tracer), acc_(acc) {
  start_ = Clock::now();
  if (tracer_.enabled_) {
    index_ = static_cast<int>(tracer_.spans_.size());
    const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    tracer_.spans_.push_back(
        {std::string(name), tracer_.ns_since_origin(start_), 0, parent});
    tracer_.open_.push_back(index_);
  }
}

Tracer::Scope::~Scope() {
  const Clock::time_point end = Clock::now();
  if (acc_ != nullptr) *acc_ += seconds_between(start_, end);
  if (index_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(index_)].end_ns =
        tracer_.ns_since_origin(end);
    tracer_.open_.pop_back();
  }
}

std::int64_t Tracer::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

bool Tracer::write(const std::string& path, const std::string& meta) const {
  mlid::JsonWriter events;
  events.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    events.begin_object()
        .key("name").value(s.name)
        .key("ph").value("X")
        .key("pid").value(1)
        .key("tid").value(1)
        .key("ts").value(static_cast<double>(s.start_ns) / 1e3)
        .key("dur").value(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .key("args").begin_object()
        .key("id").value(static_cast<std::uint64_t>(i))
        .key("parent").value(s.parent)
        .end_object()
        .end_object();
  }
  events.end_array();
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta
      << ",\"traceEvents\":" << events.str() << "}\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Gate::note(std::vector<std::string>& list, const std::string& what) {
  // Bounded: a systematic failure repeats once per pass.
  if (list.size() < 16 &&
      std::find(list.begin(), list.end(), what) == list.end()) {
    list.push_back(what);
  }
}

void Gate::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    note(problems_, what);
  }
}

void Gate::known_failure(const std::string& what) {
  ++attempted_;
  ++failed_;
  note(known_, what);
}

void Gate::check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    note(problems_, what);
  }
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  h_ ^= 0xff;  // record separator
  h_ *= 0x100000001b3ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Metrics::set(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

void Metrics::write(mlid::JsonWriter& json) const {
  json.begin_object();
  for (const Entry& e : entries_) {
    json.key(e.name).begin_object();
    json.key("value").value(e.value).key("unit").value(e.unit);
    json.end_object();
  }
  json.end_object();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
