// Sharded conservative-sync simulation driver.
//
// Partitions the fabric into per-subtree shards (parallel/partition.hpp),
// gives each shard its own event queue and engine state, and advances all
// shards in lock-stepped windows bounded by the link lookahead: every event
// that crosses a shard boundary takes at least `lookahead_ns` of simulated
// time (the wire flying time; the BECN echo delay when CC is on), so events
// strictly before `min(shard horizons) + lookahead` can be dispatched in
// parallel without any shard observing the others mid-window.  Cross-shard
// events travel as ShardMessage mailbox entries, drained into the owning
// shard's queue at each window barrier.
//
// Control-plane events (link faults, SM traps / sweeps / LFT programs) have
// no lookahead -- a program takes effect the instant it lands -- so the
// driver owns them in a separate queue and executes any timestep holding one
// as a *sequential global step*: all shards pause at that instant and events
// dispatch one at a time in the canonical order a sequential run would use.
//
// Determinism: results are bit-identical to a sequential run with
// SimConfig::event_order == EventOrder::kCanonical, for ANY shard count and
// ANY thread count (asserted by tests/parallel/shard_parity_test.cpp).  Three
// mechanisms carry the guarantee:
//   * the canonical event order makes same-timestamp dispatch a pure
//     function of event content, not of which queue scheduled it first;
//   * Packet::corder (generation order) replaces pool ids as the tie-break
//     key, because pool ids diverge across shard counts;
//   * order-sensitive accumulators (Welford windows, histograms, message
//     completion) are not fed during the run -- each shard logs
//     DeliveryRecords and the driver replays the merged log in canonical
//     order on shard 0 at the end, reproducing the sequential sequence
//     exactly (including float rounding).
//
// Time-resolved telemetry: the interval sampler and the JSONL metrics
// stream are driver-owned in sharded runs.  The driver runs the same
// IntervalObserver as the sequential engine (obs/interval.hpp) over all
// shards plus its control queue; a boundary clips the window like a
// zero-lookahead barrier (any window partition is a valid conservative-sync
// schedule), so both sinks match the sequential engine's output for any
// shard or thread count (tests/parallel/sharded_timeline_test.cpp).  The
// self-profiler (SimConfig::profile) reads host clocks and counters only,
// so it is result-neutral too (tests/obs/profile_parity_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "obs/interval.hpp"
#include "parallel/partition.hpp"
#include "sim/engine.hpp"

namespace mlid {

/// Parallelism knobs of one sharded run.
struct ShardOptions {
  std::uint32_t shards = 1;   ///< fabric partitions (1 = sequential layout)
  /// Worker threads draining shard queues inside a window; 0 = one per
  /// shard, capped at the hardware concurrency.  Any value yields
  /// bit-identical results; threads only change wall-clock time.
  std::uint32_t threads = 0;
};

/// Drop-in parallel counterpart of Simulation::open_loop / Simulation::burst:
/// same inputs, same SimResult / BurstResult, computed across shards.
class ShardedSimulation {
 public:
  [[nodiscard]] static ShardedSimulation open_loop(
      const Subnet& subnet, const SimConfig& config,
      const TrafficConfig& traffic, double offered_load,
      const ShardOptions& par, const OpenLoopOptions& options = {});

  [[nodiscard]] static ShardedSimulation burst(
      const Subnet& subnet, const SimConfig& config,
      const std::vector<MessageSpec>& workload, const ShardOptions& par);

  /// Open-loop run to config.end_time(); call once.
  SimResult run();

  /// Drain the burst workload; call once.
  BurstResult run_to_completion();

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return plan_.num_shards;
  }
  /// Worker threads the window drains actually use (requested threads
  /// resolved against the shard count and hardware concurrency).
  [[nodiscard]] std::uint32_t threads_used() const noexcept {
    return threads_used_;
  }
  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }

  /// Fleet-wide queue stats: events summed over every shard queue plus the
  /// control queue; ladder internals max-merged across shards.
  [[nodiscard]] EventQueueStats queue_stats() const;

  /// Fleet-wide hot-state bytes: Simulation::memory_footprint() summed over
  /// every shard (each shard only sizes its owned slice, so the sum is the
  /// fleet's actual allocation, not num_shards copies of the fabric).
  [[nodiscard]] std::size_t memory_footprint() const noexcept;

  /// First frozen per-shard flight dump (SimConfig::flight_recorder_depth).
  /// Devices are owner-exclusive, so every shard keeps its own host-side
  /// rings and tags its dump cause with "[shard N]"; this returns the
  /// lowest-numbered shard's dump, invalid when no shard froze one.
  [[nodiscard]] const FlightRecorderDump& flight_dump() const noexcept;

 private:
  ShardedSimulation(const Subnet& subnet, const SimConfig& config,
                    const ShardOptions& par);

  /// Routes a mailbox message to the shard that owns its event
  /// (mirrors Simulation::target_shard).
  [[nodiscard]] std::uint32_t target_of(const ShardMessage& msg) const;
  /// Moves every outbox entry into its owner's queue and every staged
  /// control event into the control queue (insertion order; the canonical
  /// event order makes that order irrelevant to results).
  void drain_mailboxes();
  /// Dispatches one driver-owned control event (replicating the control
  /// arms of Simulation::dispatch across shard boundaries).
  void dispatch_control(const Event& e);
  /// Sequential global timestep: dispatches every pending event at exactly
  /// `t` -- across all shards and the control queue -- in canonical order.
  void step_at(SimTime t);
  /// Drains shards first, first+stride, ... up to `window_end` (exclusive).
  void drain_shards(std::uint32_t first, std::uint32_t stride,
                    SimTime window_end);
  /// The conservative-sync loop: computes each window and runs it through
  /// `drain_all(window_end)` (single- or multi-threaded) until every event
  /// before `end` has dispatched.
  void window_loop(SimTime end, SimTime lookahead,
                   const std::function<void(SimTime)>& drain_all);
  /// The observer's run to `end` over window_loop, with the thread pool
  /// wrapped around it.
  void drive(SimTime end, IntervalObserver& observer);
  /// Folds every non-root shard into shard 0: owned device / CC state moves
  /// over, integer counters sum, watermarks max-merge.
  void merge_into_root();
  /// Sorts all shards' DeliveryRecords into canonical order and feeds them
  /// through shard 0's accumulators.
  void replay_deliveries();
  [[nodiscard]] bool profiling() const noexcept { return cfg_.profile; }
  [[nodiscard]] Simulation& root() { return shards_.front(); }

  const Subnet* subnet_;
  SimConfig cfg_;           ///< event_order forced to kCanonical
  ShardPlan plan_;
  SubnetManager* sm_ = nullptr;
  std::uint32_t threads_used_ = 1;
  bool burst_ = false;
  bool ran_ = false;

  // Mailbox storage is allocated before the shards so the bindings' pointers
  // stay valid from each shard's constructor on (the burst constructor can
  // emit cross-shard head arrivals while priming NICs).
  std::vector<std::vector<ShardMessage>> outboxes_;        ///< per shard
  std::vector<std::vector<ShardMessage>> control_staged_;  ///< per shard
  std::vector<ShardBinding> bindings_;
  std::vector<Simulation> shards_;
  /// Driver-owned control plane (faults + SM pipeline).  Heap: a handful of
  /// events, and the ladder's bucket machinery would be pure overhead.
  EventQueue control_{EventQueueKind::kHeap, EventOrder::kCanonical};

  /// Metrics stream (open-loop only), paced like the timeline by run()'s
  /// IntervalObserver; non-owning, from OpenLoopOptions.
  MetricsStreamer* stream_ = nullptr;

  // --- engine self-profiler (inert unless cfg_.profile; obs/profile.hpp).
  // Per-shard wall time accumulates inside drain_shards (each shard is
  // drained by exactly one worker per window and the done barrier publishes
  // the writes, so the parent reads race-free between windows); barrier
  // wait is window wall minus a shard's own drain time.  All host-clock
  // reads are keyed off cfg_.profile and never touch window boundaries, so
  // results are byte-identical with profiling on or off.
  ProfileSummary profile_;
  std::vector<std::uint64_t> win_shard_ns_;      ///< per-shard drain wall, this window
  std::vector<std::uint64_t> win_shard_events_;  ///< per-shard processed, window start
  OnlineStats window_width_;  ///< simulated-ns window widths
  OnlineStats imbalance_;     ///< per-window max/mean events-per-shard factor
};

}  // namespace mlid
