// The interval observer: one pacing loop for both time-resolved sinks, the
// interval sampler's Timeline (SimConfig::sample_interval_ns) and the JSONL
// stream's window lines (OpenLoopOptions::metrics).
//
// The sequential engine and the sharded driver each own one observer per
// run and drive it through run(): advance to min(next_due(), end), then
// fire what is due, so a boundary at t covers the window ending at t (in
// sharded runs it clips the conservative-sync window like a zero-lookahead
// barrier).  With no sink next_due() is never and a run is one advance to
// its end.  Each firing reads one counter snapshot summed over the observed
// engines; only timeline samples scan ports for gauges.  Passive: it never
// schedules events or draws random numbers (see docs/simulator.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace mlid {

class EventQueue;
class MetricsStreamer;
class Simulation;
struct SimResult;
struct Timeline;

class IntervalObserver {
 public:
  /// `engines`: the Simulations whose counters sum into each snapshot (must
  /// outlive the observer).  `control`: an extra queue whose dispatches
  /// count toward events_processed (the sharded driver's control plane),
  /// or null.  `timeline`: the sampler sink, off when null or not
  /// configured.  `stream`: the JSONL sink, off when null.
  IntervalObserver(std::span<const Simulation> engines,
                   const EventQueue* control, Timeline* timeline,
                   MetricsStreamer* stream);

  /// Earliest pending boundary of any sink; kSimTimeNever when none is.
  [[nodiscard]] SimTime next_due() const noexcept {
    return std::min(next_sample_, next_window_);
  }

  /// Fires every boundary <= t from one counter snapshot, in time order
  /// (the timeline first on a tie).  run() calls it with t = next_due(),
  /// once every event before t has dispatched and none at or after it.
  void fire_through(SimTime t);

  /// Drives a run to `end`: `advance(until)` must dispatch every event
  /// strictly before `until` and nothing later.  Boundaries at exactly
  /// `end` fire; an unbounded run (end == kSimTimeNever) fires none.
  template <typename Advance>
  void run(SimTime end, Advance&& advance) {
    while (true) {
      const SimTime due = next_due();
      advance(std::min(due, end));
      if (due == kSimTimeNever || due > end) return;
      fire_through(due);
    }
  }

  /// Run end: emits the final partial stream window when `end` is not on a
  /// stream boundary.  Call before the engines' counters are merged.
  void finish(SimTime end);

  /// The stream's closing "summary" line for a finished run (no-op without
  /// a stream).
  void summarize(const SimResult& result, std::uint32_t threads);

 private:
  /// Cumulative counters of the observed engines at one instant.
  struct Counters {
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t becn = 0;
    std::uint64_t events_processed = 0;
  };
  [[nodiscard]] Counters snapshot() const;
  void sample(SimTime t, const Counters& now);
  void window(SimTime t, const Counters& now, bool partial);

  std::span<const Simulation> engines_;
  const EventQueue* control_;
  Timeline* timeline_;  ///< null when the sampler is off
  MetricsStreamer* stream_;
  SimTime next_sample_ = kSimTimeNever;
  SimTime next_window_ = kSimTimeNever;
  SimTime last_window_ = 0;  ///< previous stream boundary
  Counters at_sample_;  ///< counters at the last timeline sample
  Counters at_window_;  ///< counters at the last stream window
};

}  // namespace mlid
