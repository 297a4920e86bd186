#include "obs/interval.hpp"

#include "obs/stream.hpp"
#include "sim/engine.hpp"

namespace mlid {

IntervalObserver::IntervalObserver(std::span<const Simulation> engines,
                                   const EventQueue* control,
                                   Timeline* timeline, MetricsStreamer* stream)
    : engines_(engines),
      control_(control),
      timeline_(timeline != nullptr && timeline->enabled() ? timeline
                                                           : nullptr),
      stream_(stream) {
  if (timeline_ != nullptr) next_sample_ = timeline_->interval_ns;
  if (stream_ != nullptr) next_window_ = stream_->interval_ns();
}

IntervalObserver::Counters IntervalObserver::snapshot() const {
  Counters c;
  if (control_ != nullptr) c.events_processed = control_->events_processed();
  for (const Simulation& sim : engines_) {
    c.generated += sim.result_.packets_generated;
    c.delivered += sim.result_.packets_delivered;
    c.dropped += sim.result_.packets_dropped;
    c.becn += sim.cc_becn_sent_;
    c.events_processed += sim.events_.events_processed();
  }
  return c;
}

void IntervalObserver::fire_through(SimTime t) {
  const Counters now = snapshot();
  while (next_due() <= t) {
    if (next_sample_ <= next_window_) {
      sample(next_sample_, now);
      // Re-read the cadence: append() doubles it when decimation triggers.
      next_sample_ += timeline_->interval_ns;
    } else {
      window(next_window_, now, /*partial=*/false);
      next_window_ += stream_->interval_ns();
    }
  }
}

void IntervalObserver::sample(SimTime t, const Counters& now) {
  TimelineSample s;
  s.t_ns = t;
  // `intervals` counts BASE intervals: after d decimations each new sample
  // covers one doubled window, i.e. 2^d base intervals, keeping the
  // per-sample tiling invariant t_ns - prev.t_ns == intervals * base.
  s.intervals = static_cast<std::uint32_t>(timeline_->interval_ns /
                                           timeline_->base_interval_ns);
  s.generated = now.generated - at_sample_.generated;
  s.delivered = now.delivered - at_sample_.delivered;
  s.dropped = now.dropped - at_sample_.dropped;
  s.becn = now.becn - at_sample_.becn;
  s.in_flight = now.generated - now.delivered - now.dropped;
  // Gauge fields accumulate across engines: sums add up, maxima max-merge
  // (a shard only scans its owned devices / HCAs).
  for (const Simulation& sim : engines_) sim.collect_sample_gauges(s);
  timeline_->append(s);
  at_sample_ = now;
}

void IntervalObserver::window(SimTime t, const Counters& now, bool partial) {
  MetricsWindow w;
  w.t_ns = t;
  w.window_ns = t - last_window_;
  w.partial = partial;
  w.shards = static_cast<std::uint32_t>(engines_.size());
  w.generated = now.generated - at_window_.generated;
  w.delivered = now.delivered - at_window_.delivered;
  w.dropped = now.dropped - at_window_.dropped;
  w.becn = now.becn - at_window_.becn;
  w.in_flight = now.generated - now.delivered - now.dropped;
  w.events_processed = now.events_processed;
  stream_->window(w);
  at_window_ = now;
  last_window_ = t;
}

void IntervalObserver::finish(SimTime end) {
  if (stream_ != nullptr && last_window_ < end) {
    window(end, snapshot(), /*partial=*/true);
  }
}

void IntervalObserver::summarize(const SimResult& result,
                                 std::uint32_t threads) {
  if (stream_ == nullptr) return;
  MetricsRunSummary summary;
  summary.end_ns = result.sim_end_ns;
  summary.shards = static_cast<std::uint32_t>(engines_.size());
  summary.threads = threads;
  summary.generated = result.packets_generated;
  summary.delivered = result.packets_delivered;
  summary.dropped = result.packets_dropped;
  summary.events_processed = result.events_processed;
  summary.profile = &result.profile;
  stream_->run_summary(summary);
}

}  // namespace mlid
