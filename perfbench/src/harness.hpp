// Measurement plumbing shared by every workload: host-time spans around
// calls into the simulator, quantiles, the correctness gate with failure
// accounting, result digests and the metric sink.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/report.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// Records one span per timed call (name, start, end, parent) when enabled,
/// keeps them in memory and writes them as a Chrome trace at exit.  Timing
/// itself happens whether or not spans are recorded: the end-to-end metrics
/// come from the same clocks with recording off.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Times the enclosing block; adds its host seconds to `*acc` (if given).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, double* acc = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    double* acc_;
    int index_ = -1;
    Clock::time_point start_;
  };

  /// Calls `f` inside a span named `name` and adds its host time to `acc`.
  template <class F>
  decltype(auto) call(std::string_view name, double& acc, F&& f) {
    const Scope scope(*this, name, &acc);
    return std::forward<F>(f)();
  }

  /// Spans are recorded only while recording is on.
  void record(bool on) noexcept { enabled_ = on; }

  /// Chrome trace-event JSON ("X" events, parent index in args); `meta` is
  /// a JSON object stored under "otherData".  Returns false on I/O error.
  bool write(const std::string& path, const std::string& meta) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  [[nodiscard]] std::int64_t ns_since_origin(Clock::time_point t) const;

  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// Linear-interpolated quantile (the "inclusive" rule of Python's
/// statistics.quantiles); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Operation accounting.  `attempted` / `failed` count operations (one
/// simulation, or one scenario x seed); `correct` turns false on any failed
/// operation that is not a recorded known finding, and on any broken
/// whole-run check (determinism, tracing passivity, sharded identity).
class Gate {
 public:
  void op(bool ok, const std::string& what);
  /// A failed operation that is a recorded finding: counted in `failed`,
  /// reported, but the outputs are as expected.
  void known_failure(const std::string& what);
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }
  [[nodiscard]] const std::vector<std::string>& known() const noexcept {
    return known_;
  }

 private:
  static void note(std::vector<std::string>& list, const std::string& what);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> problems_;
  std::vector<std::string> known_;
};

/// Order-sensitive 64-bit FNV-1a over result JSON.
class Digest {
 public:
  void add(std::string_view bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Named metrics with units, in emission order.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit);
  /// Writes {"name": {"value": v, "unit": u}, ...} as the pending value.
  void write(mlid::JsonWriter& json) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process, MiB (VmHWM); 0 if unreadable.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
