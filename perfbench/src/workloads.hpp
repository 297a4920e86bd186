// The benchmark's workloads.  Each one builds its inputs from the seed,
// times its own calls into the simulator's public API and checks what the
// calls return; nothing here reaches into the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "obs/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// Host seconds of one set-up: everything built before the first event.
struct SetupTimes {
  double topology_s = 0.0;   ///< FatTreeFabric construction
  double bringup_s = 0.0;    ///< Subnet (discovery, LIDs, LFTs) + SubnetManager
  double construct_s = 0.0;  ///< engine construction
  [[nodiscard]] double total() const {
    return topology_s + bringup_s + construct_s;
  }
};

/// Counters the simulator's calls return, summed over one pass.
struct LayerCounters {
  double events = 0.0;
  double processing_ns = 0.0;
  double control_ns = 0.0;
  double barrier_ns = 0.0;
  double mailbox_ns = 0.0;
  double windows = 0.0;
  double window_ns_sum = 0.0;  ///< window_ns_mean x windows, summed
  double handoffs = 0.0;
  double imbalance_sum = 0.0;
  double imbalance_runs = 0.0;
  double queue_buckets = 0.0;      ///< max over runs
  double queue_resizes = 0.0;
  double queue_max_bucket = 0.0;   ///< max over runs
  double queue_overflow = 0.0;
  double sm_traps = 0.0;
  double sm_sweeps = 0.0;
  double sm_entries = 0.0;
  double becn_sent = 0.0;
  double fecn_marked = 0.0;
  double engine_bytes = 0.0;       ///< max over runs
  double bytes_per_endport = 0.0;  ///< max over runs

  void add(const mlid::SimResult& r);
  void add_profile(const mlid::ProfileSummary& p);
  void add_queue(const mlid::EventQueueStats& q);
  void add_memory(double engine, double per_endport);
};

/// One unit of a workload's work (see README.md for each workload's unit).
struct PassResult {
  double wall_s = 0.0;              ///< host time inside the run calls
  double harness_overhead_s = 0.0;  ///< run call time outside simulations
  std::uint64_t delivered = 0;      ///< packets delivered
  std::vector<double> sim_s;        ///< host time per simulation
  std::string digest;               ///< profile-scrubbed results
  LayerCounters layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds (or rebuilds) the fabric, routes and engines the passes use.
  virtual SetupTimes setup(Tracer& tracer) = 0;
  /// A digest every pass must reproduce, computed by an independent path
  /// (the sequential oracle for the sharded workload); nullopt if none.
  virtual std::optional<std::string> reference(Tracer&, Gate&) {
    return std::nullopt;
  }
  /// One unit of work; `profiled` turns the engine self-profiler on.
  virtual PassResult pass(Tracer& tracer, bool profiled, Gate& gate) = 0;
  /// Routing- and subnet-layer probes on the workload's fabric.
  virtual void probe(Tracer& tracer, Gate& gate, Metrics& out) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed);
std::vector<std::string> workload_names();

}  // namespace perfbench
