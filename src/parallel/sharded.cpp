#include "parallel/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>

#include "obs/interval.hpp"

namespace mlid {

namespace {
/// Default worker count when ShardOptions::threads == 0.
[[nodiscard]] std::uint32_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Host nanoseconds since `t0` (profiler clock; never simulation time).
[[nodiscard]] std::uint64_t ns_since(
    std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

ShardedSimulation::ShardedSimulation(const Subnet& subnet,
                                     const SimConfig& config,
                                     const ShardOptions& par)
    : subnet_(&subnet), cfg_(config) {
  // Sharding requires the content-based tie-break; forcing it here (instead
  // of rejecting kFifo) keeps the call sites identical to the sequential
  // factories.  The parity oracle is a sequential kCanonical run.
  cfg_.event_order = EventOrder::kCanonical;
  plan_ = ShardPlan::subtree(subnet.fabric(), par.shards, cfg_);
  const std::uint32_t requested =
      par.threads == 0 ? hardware_threads() : par.threads;
  threads_used_ = std::clamp<std::uint32_t>(requested, 1, plan_.num_shards);
  outboxes_.resize(plan_.num_shards);
  control_staged_.resize(plan_.num_shards);
  bindings_.resize(plan_.num_shards);
  for (std::uint32_t i = 0; i < plan_.num_shards; ++i) {
    bindings_[i] =
        ShardBinding{i,
                     plan_.num_shards,
                     &plan_.dev_shard,
                     &plan_.node_shard,
                     &outboxes_[i],
                     &control_staged_[i]};
  }
  shards_.reserve(plan_.num_shards);
  if (cfg_.profile) {
    profile_.shard_phases.assign(plan_.num_shards, ShardPhaseProfile{});
    win_shard_ns_.assign(plan_.num_shards, 0);
    win_shard_events_.assign(plan_.num_shards, 0);
  }
}

ShardedSimulation ShardedSimulation::open_loop(const Subnet& subnet,
                                               const SimConfig& config,
                                               const TrafficConfig& traffic,
                                               double offered_load,
                                               const ShardOptions& par,
                                               const OpenLoopOptions& options) {
  ShardedSimulation driver(subnet, config, par);
  driver.sm_ = options.live_sm;
  if (options.live_sm == nullptr) {
    MLID_EXPECT(options.faults.empty(),
                "a fault schedule needs a live SM to react to it");
  } else {
    options.faults.validate();
  }
  // The interval sampler is driver-owned: the shards are built with a
  // zeroed interval, and the driver's interval observer paces the
  // fleet-wide timeline into the root shard's, which finalize_open_loop
  // exports like the sequential engine does.  Self-profiling and the
  // metrics stream are driver-owned the same way.
  SimConfig shard_cfg = driver.cfg_;
  shard_cfg.sample_interval_ns = 0;
  shard_cfg.profile = false;
  driver.stream_ = options.metrics;
  for (std::uint32_t i = 0; i < driver.plan_.num_shards; ++i) {
    driver.shards_.push_back(Simulation::open_loop_shard(
        subnet, shard_cfg, traffic, offered_load, driver.sm_,
        driver.bindings_[i]));
  }
  if (driver.cfg_.sample_interval_ns > 0) {
    driver.root().timeline_.configure(driver.cfg_.sample_interval_ns,
                                      driver.cfg_.timeline_max_samples);
  }
  // The faults seed the driver's control queue with the same encoding
  // Simulation::attach_live_sm uses for its single queue.
  for (const FaultEvent& f : options.faults.events()) {
    if (f.fail) {
      driver.control_.push(f.at, EventKind::kLinkFail, f.dev_a, f.port_a);
    } else {
      driver.control_.push(f.at, EventKind::kLinkRecover, f.dev_a, f.port_a,
                           static_cast<VlId>(f.port_b),
                           static_cast<PacketId>(f.dev_b));
    }
  }
  driver.drain_mailboxes();  // nothing expected; keep construction airtight
  return driver;
}

ShardedSimulation ShardedSimulation::burst(
    const Subnet& subnet, const SimConfig& config,
    const std::vector<MessageSpec>& workload, const ShardOptions& par) {
  ShardedSimulation driver(subnet, config, par);
  driver.burst_ = true;
  // Mirrors the sequential burst constructor's rejection: the shards are
  // built with a zeroed interval, so the driver must enforce it here.
  MLID_EXPECT(config.sample_interval_ns == 0,
              "the interval sampler is open-loop only (burst runs have no "
              "fixed end time to pace samples against)");
  for (std::uint32_t i = 0; i < driver.plan_.num_shards; ++i) {
    driver.shards_.push_back(
        Simulation::burst_shard(subnet, driver.cfg_, workload,
                                driver.bindings_[i]));
  }
  // Priming the NICs inside the constructors can already cross shard
  // boundaries (a leaf switch may live on a different shard than one of its
  // nodes when the node blocks do not align with subtree edges).
  driver.drain_mailboxes();
  return driver;
}

std::uint32_t ShardedSimulation::target_of(const ShardMessage& msg) const {
  switch (msg.kind) {
    case EventKind::kGenerate:
    case EventKind::kBecnArrive:
    case EventKind::kCctTimer:
    case EventKind::kCcRelease:
      return plan_.node_shard[msg.dev];
    default:
      return plan_.dev_shard[msg.dev];
  }
}

void ShardedSimulation::drain_mailboxes() {
  for (std::uint32_t i = 0; i < plan_.num_shards; ++i) {
    if (profiling()) {
      profile_.shard_phases[i].handoffs_out += outboxes_[i].size();
      profile_.handoff_messages += outboxes_[i].size();
    }
    for (const ShardMessage& msg : outboxes_[i]) {
      shards_[target_of(msg)].receive(msg);
    }
    outboxes_[i].clear();
    for (const ShardMessage& msg : control_staged_[i]) {
      control_.push(msg.time, msg.kind, msg.dev, msg.port, msg.vl, msg.pkt);
    }
    control_staged_[i].clear();
  }
}

void ShardedSimulation::dispatch_control(const Event& e) {
  MLID_EXPECT(sm_ != nullptr, "control events need a live SM");
  switch (e.kind) {
    case EventKind::kLinkFail: {
      // Replicates Simulation::on_link_fail across shard boundaries: the
      // peer must be read before the SM disconnects the fabric, and
      // first_fault_ns must be visible on EVERY shard before the kills so
      // each shard's drop taxonomy matches the sequential run.
      const PortRef peer = subnet_->fabric().fabric().peer_of(e.dev, e.port);
      if (!peer.valid()) break;  // duplicate schedule entry: already dead
      for (Simulation& s : shards_) {
        if (s.result_.first_fault_ns < 0) s.result_.first_fault_ns = e.time;
      }
      const auto traps = sm_->on_link_fail(e.dev, e.port, e.time);
      shards_[plan_.dev_shard[e.dev]].kill_port(e.dev, e.port, e.time);
      shards_[plan_.dev_shard[peer.device]].kill_port(peer.device, peer.port,
                                                      e.time);
      for (const auto& trap : traps) {
        control_.push(trap.at, EventKind::kTrap, trap.reporter, trap.port);
      }
      break;
    }
    case EventKind::kLinkRecover: {
      const auto dev_b = static_cast<DeviceId>(e.pkt);
      const PortId port_b = e.vl;
      const auto traps =
          sm_->on_link_recover(e.dev, e.port, dev_b, port_b, e.time);
      shards_[plan_.dev_shard[e.dev]].revive_port(e.dev, e.port);
      shards_[plan_.dev_shard[dev_b]].revive_port(dev_b, port_b);
      for (const auto& trap : traps) {
        control_.push(trap.at, EventKind::kTrap, trap.reporter, trap.port);
      }
      break;
    }
    case EventKind::kTrap: {
      const auto sweep_done = sm_->on_trap(e.dev, e.port, e.time);
      if (sweep_done) {
        control_.push(*sweep_done, EventKind::kSweepDone, e.dev);
      }
      break;
    }
    case EventKind::kSweepDone:
      for (const auto& op : sm_->on_sweep_done(e.time)) {
        control_.push(op.at, EventKind::kLftProgram, op.plan_index, 0, 0,
                      op.epoch);
      }
      break;
    case EventKind::kLftProgram:
      sm_->apply_program(e.dev, e.pkt, e.time);
      break;
    default:
      MLID_EXPECT(false, "data event in the driver's control queue");
  }
}

void ShardedSimulation::step_at(SimTime t) {
  // All shards have reached `t`; dispatch every event at exactly `t` one at
  // a time in the canonical order, draining mailboxes after each so a
  // kill_port's drops or an LFT program's effects land before the next
  // pick -- the same interleaving the sequential queue produces.  The
  // comparator's seq tie-break never decides across queues: each (kind,
  // device) pair is owned by exactly one queue, so full content-key ties
  // between queues cannot occur.
  const detail::EventCompare earlier{EventOrder::kCanonical};
  while (true) {
    Simulation* best_shard = nullptr;
    const Event* best = nullptr;
    for (Simulation& s : shards_) {
      const Event* e = s.events_.peek();
      if (e == nullptr || e->time != t) continue;
      if (best == nullptr || earlier(*e, *best)) {
        best = e;
        best_shard = &s;
      }
    }
    if (const Event* c = control_.peek();
        c != nullptr && c->time == t && (best == nullptr || earlier(*c, *best))) {
      best = c;
      best_shard = nullptr;
    }
    if (best == nullptr) return;
    if (best_shard == nullptr) {
      dispatch_control(control_.pop());
    } else {
      best_shard->dispatch(best_shard->events_.pop());
    }
    drain_mailboxes();
  }
}

void ShardedSimulation::drain_shards(std::uint32_t first, std::uint32_t stride,
                                     SimTime window_end) {
  for (std::uint32_t i = first; i < shards_.size(); i += stride) {
    Simulation& s = shards_[i];
    if (profiling()) {
      // Per-shard drain wall time: this shard is drained by exactly one
      // worker per window, and the done barrier publishes the write before
      // the parent reads it -- no synchronization beyond the window
      // protocol is needed.
      const auto t0 = std::chrono::steady_clock::now();
      s.events_.drain_until(window_end,
                            [&s](const Event& e) { s.dispatch(e); });
      const std::uint64_t dt = ns_since(t0);
      profile_.shard_phases[i].processing_ns += dt;
      win_shard_ns_[i] = dt;
    } else {
      s.events_.drain_until(window_end,
                            [&s](const Event& e) { s.dispatch(e); });
    }
  }
}

void ShardedSimulation::window_loop(
    SimTime end, SimTime lookahead,
    const std::function<void(SimTime)>& drain_all) {
  while (true) {
    SimTime horizon = kSimTimeNever;
    for (Simulation& s : shards_) {
      if (const Event* e = s.events_.peek()) {
        horizon = std::min(horizon, e->time);
      }
    }
    SimTime control_time = kSimTimeNever;
    if (const Event* c = control_.peek()) control_time = c->time;
    horizon = std::min(horizon, control_time);
    if (horizon >= end) return;  // drained, or only post-end events remain
    const SimTime by_lookahead = lookahead >= kSimTimeNever - horizon
                                     ? kSimTimeNever
                                     : horizon + lookahead;
    const SimTime window_end = std::min({by_lookahead, control_time, end});
    if (window_end > horizon) {
      // Every event in [horizon, window_end) is safe to dispatch without
      // cross-shard coordination: anything a shard emits during the window
      // lands at >= horizon + lookahead >= window_end.
      if (!profiling()) {
        drain_all(window_end);
        drain_mailboxes();
        continue;
      }
      for (std::uint32_t i = 0; i < plan_.num_shards; ++i) {
        win_shard_ns_[i] = 0;
        win_shard_events_[i] = shards_[i].events_.events_processed();
      }
      const auto t0 = std::chrono::steady_clock::now();
      drain_all(window_end);
      const std::uint64_t window_wall = ns_since(t0);
      const auto t1 = std::chrono::steady_clock::now();
      drain_mailboxes();
      profile_.mailbox_ns += ns_since(t1);
      ++profile_.windows;
      window_width_.add(static_cast<double>(window_end - horizon));
      // Barrier wait: the window's wall time minus the shard's own drain
      // time.  Under one worker thread this degrades to "time spent while
      // the other shards drained" -- the serialization cost -- which keeps
      // the fraction comparable across thread counts.
      std::uint64_t max_ev = 0;
      std::uint64_t total_ev = 0;
      for (std::uint32_t i = 0; i < plan_.num_shards; ++i) {
        const std::uint64_t own = std::min(window_wall, win_shard_ns_[i]);
        profile_.shard_phases[i].barrier_wait_ns += window_wall - own;
        const std::uint64_t ev =
            shards_[i].events_.events_processed() - win_shard_events_[i];
        max_ev = std::max(max_ev, ev);
        total_ev += ev;
      }
      if (total_ev > 0) {
        const double mean_ev = static_cast<double>(total_ev) /
                               static_cast<double>(plan_.num_shards);
        imbalance_.add(static_cast<double>(max_ev) / mean_ev);
      }
    } else {
      // A control event sits exactly at the horizon: no parallel progress
      // is possible (control has zero lookahead), so run the timestep
      // sequentially and re-open the next window after it.
      if (!profiling()) {
        step_at(horizon);
        continue;
      }
      const auto t0 = std::chrono::steady_clock::now();
      step_at(horizon);
      profile_.control_ns += ns_since(t0);
      ++profile_.control_steps;
    }
  }
}

void ShardedSimulation::drive(SimTime end, IntervalObserver& observer) {
  const SimTime lookahead =
      plan_.num_shards > 1 ? plan_.lookahead_ns : kSimTimeNever;
  if (threads_used_ <= 1) {
    observer.run(end, [&](SimTime until) {
      window_loop(until, lookahead,
                  [this](SimTime we) { drain_shards(0, 1, we); });
    });
    return;
  }

  // Persistent worker pool, two-barrier window protocol: the parent writes
  // window_end, releases the start barrier, workers drain their shards, the
  // done barrier closes the window and publishes everything back (both
  // barriers give the necessary happens-before edges).  Worker exceptions
  // are parked and rethrown on the parent after the window.
  const std::uint32_t workers = threads_used_;
  std::barrier start(workers + 1);
  std::barrier done(workers + 1);
  std::atomic<bool> stop{false};
  SimTime window_end = 0;
  std::mutex err_mu;
  std::exception_ptr err;
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      while (true) {
        start.arrive_and_wait();
        if (stop.load(std::memory_order_relaxed)) return;
        try {
          drain_shards(w, workers, window_end);
        } catch (...) {
          const std::scoped_lock lock(err_mu);
          if (!err) err = std::current_exception();
        }
        done.arrive_and_wait();
      }
    });
  }
  bool pool_running = true;
  auto shutdown = [&] {
    if (!pool_running) return;
    pool_running = false;
    stop.store(true, std::memory_order_relaxed);
    start.arrive_and_wait();  // releases the workers into their exit path
  };
  try {
    const std::function<void(SimTime)> drain_all = [&](SimTime we) {
      window_end = we;
      start.arrive_and_wait();
      done.arrive_and_wait();
      if (err) std::rethrow_exception(err);
    };
    observer.run(end, [&](SimTime until) {
      window_loop(until, lookahead, drain_all);
    });
    shutdown();
  } catch (...) {
    shutdown();
    throw;
  }
}

void ShardedSimulation::merge_into_root() {
  Simulation& r = root();
  for (std::uint32_t i = 1; i < shards_.size(); ++i) {
    Simulation& s = shards_[i];
    SimResult& a = r.result_;
    const SimResult& b = s.result_;
    a.packets_generated += b.packets_generated;
    a.packets_delivered += b.packets_delivered;
    a.packets_dropped += b.packets_dropped;
    a.dropped_unroutable += b.dropped_unroutable;
    a.dropped_dead_link += b.dropped_dead_link;
    a.dropped_during_convergence += b.dropped_during_convergence;
    a.drops_post_convergence += b.drops_post_convergence;
    a.max_source_queue_pkts =
        std::max(a.max_source_queue_pkts, b.max_source_queue_pkts);
    // Devices are dispatched exclusively by their owner, so the owner's
    // flat per-port / per-VL state (buffer occupancy, link-utilization and
    // telemetry counters, connectivity after faults) is authoritative --
    // copy its slot ranges over.  Every shard shares the same port_base_
    // layout (it is a pure function of the fabric), so the ranges line up.
    // PacketQueue heads/tails inside the copied slots reference the owner's
    // pool; finalization only reads queue *sizes*, never the links.
    const Fabric& g = subnet_->fabric().fabric();
    const auto copy_range = [](auto& dst, const auto& src, std::size_t lo,
                               std::size_t hi) {
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(lo),
                src.begin() + static_cast<std::ptrdiff_t>(hi),
                dst.begin() + static_cast<std::ptrdiff_t>(lo));
    };
    for (DeviceId dev = 0; dev < g.num_devices(); ++dev) {
      if (plan_.dev_shard[dev] != i) continue;
      const std::size_t lo = r.port_base_[dev];
      const std::size_t hi = r.port_base_[dev + 1];
      copy_range(r.port_busy_until_, s.port_busy_until_, lo, hi);
      copy_range(r.port_busy_in_window_, s.port_busy_in_window_, lo, hi);
      copy_range(r.port_packets_tx_, s.port_packets_tx_, lo, hi);
      copy_range(r.port_wrr_vl_, s.port_wrr_vl_, lo, hi);
      copy_range(r.port_wrr_budget_, s.port_wrr_budget_, lo, hi);
      copy_range(r.port_retry_, s.port_retry_, lo, hi);
      copy_range(r.port_connected_, s.port_connected_, lo, hi);
      const std::size_t vlo = lo * r.vls_;
      const std::size_t vhi = hi * r.vls_;
      copy_range(r.vl_q_, s.vl_q_, vlo, vhi);
      copy_range(r.vl_wait_, s.vl_wait_, vlo, vhi);
      copy_range(r.vl_free_slots_, s.vl_free_slots_, vlo, vhi);
      copy_range(r.vl_credits_, s.vl_credits_, vlo, vhi);
      copy_range(r.vl_tx_pkt_, s.vl_tx_pkt_, vlo, vhi);
      copy_range(r.vl_cc_stall_since_, s.vl_cc_stall_since_, vlo, vhi);
      copy_range(r.vl_cold_, s.vl_cold_, vlo, vhi);
    }
    if (cfg_.cc.enabled) {
      r.cc_fecn_marked_ += s.cc_fecn_marked_;
      r.cc_fecn_depth_marks_ += s.cc_fecn_depth_marks_;
      r.cc_fecn_stall_marks_ += s.cc_fecn_stall_marks_;
      r.cc_becn_sent_ += s.cc_becn_sent_;
      r.cc_timer_fires_ += s.cc_timer_fires_;
      for (std::size_t k = 0; k < r.cc_index_hist_.size(); ++k) {
        r.cc_index_hist_[k] += s.cc_index_hist_[k];
      }
      // Per-HCA CC state is node-owner exclusive (BECNs, timers and gates
      // all dispatch on the source's shard).
      for (NodeId node = 0; node < plan_.node_shard.size(); ++node) {
        if (plan_.node_shard[node] != i) continue;
        r.cc_nodes_[node] = std::move(s.cc_nodes_[node]);
        r.cct_[node] = std::move(s.cct_[node]);
      }
    }
    r.last_delivery_ = std::max(r.last_delivery_, s.last_delivery_);
    r.burst_packets_ += s.burst_packets_;
    r.burst_bytes_ += s.burst_bytes_;
  }
}

void ShardedSimulation::replay_deliveries() {
  Simulation& r = root();
  std::vector<Simulation::DeliveryRecord> all;
  std::size_t total = 0;
  for (const Simulation& s : shards_) total += s.deliveries_.size();
  all.reserve(total);
  for (Simulation& s : shards_) {
    all.insert(all.end(), s.deliveries_.begin(), s.deliveries_.end());
    s.deliveries_.clear();
  }
  // Canonical dispatch order of kDeliver events: (time, dev, vl, corder).
  // Destination endnodes have a single port, and corder is unique per
  // packet, so this reproduces the sequential accumulation sequence.
  std::sort(all.begin(), all.end(),
            [](const Simulation::DeliveryRecord& a,
               const Simulation::DeliveryRecord& b) {
              return std::tie(a.time, a.dev, a.vl, a.corder) <
                     std::tie(b.time, b.dev, b.vl, b.corder);
            });
  for (const Simulation::DeliveryRecord& rec : all) {
    r.accumulate_delivery(rec);
  }
}

SimResult ShardedSimulation::run() {
  MLID_EXPECT(!burst_, "burst driver: use run_to_completion()");
  MLID_EXPECT(!ran_, "a sharded simulation runs once");
  ran_ = true;
  const SimTime end = cfg_.end_time();
  const auto run_start = std::chrono::steady_clock::now();
  IntervalObserver observer(shards_, &control_, &root().timeline_, stream_);
  drive(end, observer);
  drain_mailboxes();
  // The final sub-interval window must go out before merge_into_root sums
  // the non-root shards' counters into the root (the observer's fleet sum
  // would double-count them afterwards).
  observer.finish(end);
  merge_into_root();
  replay_deliveries();
  const EventQueueStats qs = queue_stats();
  if (profiling()) {
    // Assemble the fleet profile and hand it to the root;
    // finalize_open_loop copies it into SimResult.
    profile_.enabled = true;
    profile_.shards = plan_.num_shards;
    profile_.threads = threads_used_;
    profile_.total_wall_ns = ns_since(run_start);
    profile_.window_ns_min = static_cast<SimTime>(window_width_.min());
    profile_.window_ns_max = static_cast<SimTime>(window_width_.max());
    profile_.window_ns_mean = window_width_.mean();
    profile_.max_imbalance = imbalance_.max();
    profile_.mean_imbalance = imbalance_.mean();
    profile_.processing_ns = 0;
    profile_.barrier_wait_ns = 0;
    for (std::uint32_t i = 0; i < plan_.num_shards; ++i) {
      profile_.shard_phases[i].events_processed =
          shards_[i].events_.events_processed();
      profile_.processing_ns += profile_.shard_phases[i].processing_ns;
      profile_.barrier_wait_ns += profile_.shard_phases[i].barrier_wait_ns;
    }
    profile_.queue_pushes = qs.events_scheduled;
    profile_.queue_pops = qs.events_processed;
    profile_.queue_overflow_pushes = qs.overflow_pushes;
    profile_.queue_resizes = qs.resizes;
    root().profile_ = profile_;
  }
  root().check_invariants();
  const SimResult result =
      root().finalize_open_loop(qs.events_processed, qs.events_scheduled);
  observer.summarize(result, threads_used_);
  return result;
}

BurstResult ShardedSimulation::run_to_completion() {
  MLID_EXPECT(burst_, "run_to_completion needs the burst factory");
  MLID_EXPECT(!ran_, "a sharded simulation runs once");
  ran_ = true;
  // No sinks: the observer's run is one advance until the queues drain.
  IntervalObserver observer(shards_, &control_, nullptr, nullptr);
  drive(kSimTimeNever, observer);
  drain_mailboxes();
  merge_into_root();
  replay_deliveries();
  Simulation& r = root();
  MLID_EXPECT(r.result_.packets_delivered + r.result_.packets_dropped ==
                  r.result_.packets_generated,
              "burst did not fully drain");
  r.check_invariants();
  const EventQueueStats qs = queue_stats();
  return r.finalize_burst(qs.events_processed, qs.events_scheduled);
}

EventQueueStats ShardedSimulation::queue_stats() const {
  EventQueueStats sum;
  sum.kind = cfg_.event_queue;
  const EventQueueStats control = control_.stats();
  sum.events_scheduled = control.events_scheduled;
  sum.events_processed = control.events_processed;
  for (const Simulation& s : shards_) {
    const EventQueueStats q = s.events_.stats();
    sum.events_scheduled += q.events_scheduled;
    sum.events_processed += q.events_processed;
    sum.buckets = std::max(sum.buckets, q.buckets);
    sum.bucket_width_ns = std::max(sum.bucket_width_ns, q.bucket_width_ns);
    sum.resizes += q.resizes;
    sum.overflow_pushes += q.overflow_pushes;
    sum.max_overflow_depth =
        std::max(sum.max_overflow_depth, q.max_overflow_depth);
    sum.max_bucket_events =
        std::max(sum.max_bucket_events, q.max_bucket_events);
  }
  return sum;
}

std::size_t ShardedSimulation::memory_footprint() const noexcept {
  std::size_t total = 0;
  for (const Simulation& s : shards_) total += s.memory_footprint();
  return total;
}

const FlightRecorderDump& ShardedSimulation::flight_dump() const noexcept {
  for (const Simulation& s : shards_) {
    if (s.flight_dump().valid()) return s.flight_dump();
  }
  return shards_.front().flight_dump();
}

}  // namespace mlid
