#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <random>
#include <utility>

#include "harness/report.hpp"
#include "harness/scenario_sweep.hpp"
#include "harness/sweep.hpp"
#include "parallel/sharded.hpp"
#include "probes.hpp"
#include "routing/fat_tree_routing.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "subnet/sm.hpp"

namespace perfbench {

namespace {

using mlid::FatTreeFabric;
using mlid::FatTreeParams;
using mlid::SimConfig;
using mlid::SimResult;
using mlid::Subnet;

std::string scrubbed_json(SimResult r) {
  r.profile = mlid::ProfileSummary{};
  return mlid::to_json(r);
}

std::string what_of(const std::exception& e) { return e.what(); }

double total_ports(const FatTreeFabric& ft) {
  double ports = 0.0;
  for (mlid::DeviceId dev = 0; dev < ft.fabric().num_devices(); ++dev) {
    ports += ft.fabric().device(dev).num_ports();
  }
  return ports;
}

// Offered load the network must carry on a point below saturation: at
// least kCarried of it, for every point whose offered load is under
// kUnsaturated of the highest rate its series accepted and whose busiest
// endnode link is offered under kUnsaturated of its bandwidth.
constexpr double kUnsaturated = 0.8;
constexpr double kCarried = 0.95;

}  // namespace

void LayerCounters::add(const SimResult& r) {
  events += static_cast<double>(r.events_processed);
  sm_traps += static_cast<double>(r.sm_traps);
  sm_sweeps += static_cast<double>(r.sm_sweeps);
  sm_entries += static_cast<double>(r.sm_entries_programmed);
  becn_sent += static_cast<double>(r.cc.becn_sent);
  fecn_marked += static_cast<double>(r.cc.fecn_marked);
  add_profile(r.profile);
}

void LayerCounters::add_profile(const mlid::ProfileSummary& p) {
  processing_ns += static_cast<double>(p.processing_ns);
  control_ns += static_cast<double>(p.control_ns);
  barrier_ns += static_cast<double>(p.barrier_wait_ns);
  mailbox_ns += static_cast<double>(p.mailbox_ns);
  windows += static_cast<double>(p.windows);
  window_ns_sum += p.window_ns_mean * static_cast<double>(p.windows);
  handoffs += static_cast<double>(p.handoff_messages);
  if (p.windows > 0) {
    imbalance_sum += p.mean_imbalance;
    imbalance_runs += 1.0;
  }
}

void LayerCounters::add_queue(const mlid::EventQueueStats& q) {
  queue_buckets = std::max(queue_buckets, static_cast<double>(q.buckets));
  queue_resizes += static_cast<double>(q.resizes);
  queue_max_bucket =
      std::max(queue_max_bucket, static_cast<double>(q.max_bucket_events));
  queue_overflow += static_cast<double>(q.overflow_pushes);
}

void LayerCounters::add_memory(double engine, double per_endport) {
  engine_bytes = std::max(engine_bytes, engine);
  bytes_per_endport = std::max(bytes_per_endport, per_endport);
}

namespace {

void emit_probes(const Subnet& subnet, const SchemeFactory& scheme,
                 double compile_s, double table_bytes, std::uint64_t seed,
                 Tracer& tracer, Gate& gate, Metrics& out) {
  out.set("routing.compile_s", compile_s, "s");
  out.set("routing.table_bytes", table_bytes, "bytes");
  out.set("routing.trace_path_ns",
          probe_trace_path(subnet, seed, tracer, gate), "ns");
  const RepairProbe repair =
      probe_repair(subnet.fabric().params(), scheme, seed, tracer, gate);
  out.set("routing.repaired_trace_path_ns", repair.repaired_walk_ns, "ns");
  out.set("subnet.repair_ms", repair.repair_ms, "ms");
  out.set("subnet.overlay_entries", repair.overlay_entries, "count");
}

SchemeFactory named_scheme(std::string name) {
  return [name = std::move(name)](const FatTreeFabric& fabric) {
    return mlid::make_scheme(name, fabric);
  };
}

// ---------------------------------------------------------------------------
// paper_figs: Fig. 15 (uniform) + Fig. 19 (centric) on FT(8,3), SLID/MLID x
// VL {1,2,4} x 9 loads, run_sweep on one worker, sequential engine.
class PaperFigs final : public Workload {
 public:
  explicit PaperFigs(std::uint64_t seed) : seed_(seed) {
    for (const auto kind :
         {mlid::TrafficKind::kUniform, mlid::TrafficKind::kCentric}) {
      mlid::FigureSpec spec;
      spec.title = kind == mlid::TrafficKind::kUniform ? "fig15" : "fig19";
      spec.m = 8;
      spec.n = 3;
      spec.traffic.kind = kind;
      spec.traffic.hot_fraction = 0.20;
      spec.traffic.hot_node = 0;
      spec.traffic.seed = seed ^ 0x7EAFF1C5ull;
      spec.sim.seed = seed;
      specs_.push_back(std::move(spec));
    }
  }

  SetupTimes setup(Tracer& tr) override {
    SetupTimes t;
    subnets_.clear();
    fabric_.reset();
    fabric_ = tr.call("FatTreeFabric", t.topology_s, [] {
      return std::make_unique<FatTreeFabric>(FatTreeParams(8, 3));
    });
    for (const std::string& scheme : specs_.front().schemes) {
      subnets_.push_back(tr.call("Subnet", t.bringup_s, [&] {
        return std::make_unique<Subnet>(*fabric_, scheme);
      }));
      table_bytes_[scheme] =
          static_cast<double>(subnets_.back()->routes().memory_bytes());
      for (const int vls : specs_.front().vl_counts) {
        SimConfig cfg = specs_.front().sim;
        cfg.num_vls = vls;
        tr.call("Simulation::open_loop", t.construct_s, [&] {
          return mlid::Simulation::open_loop(*subnets_.back(), cfg,
                                             specs_.front().traffic, 0.05)
              .memory_footprint();
        });
      }
    }
    return t;
  }

  PassResult pass(Tracer& tr, bool profiled, Gate& gate) override {
    PassResult out;
    Digest digest;
    mlid::SweepOptions options;
    options.threads = 1;
    options.shards = 1;
    options.profile = profiled;
    const double ports = total_ports(*fabric_);
    const double nodes = fabric_->fabric().num_endnodes();
    for (const mlid::FigureSpec& spec : specs_) {
      std::vector<mlid::SweepPoint> points;
      double wall = 0.0;
      try {
        points = tr.call("run_sweep", wall,
                         [&] { return mlid::run_sweep(spec, options); });
      } catch (const std::exception& e) {
        const std::size_t n =
            spec.schemes.size() * spec.vl_counts.size() * spec.loads.size();
        for (std::size_t i = 0; i < n; ++i) {
          gate.op(false, spec.title + ": run_sweep threw: " + what_of(e));
        }
        continue;
      }
      out.wall_s += wall;
      double sims = 0.0;
      for (const mlid::SweepPoint& p : points) {
        sims += p.manifest.wall_seconds;
        out.sim_s.push_back(p.manifest.wall_seconds);
        out.delivered += p.result.packets_delivered;
        out.layers.add(p.result);
        out.layers.add_queue(p.manifest.queue);
        out.layers.add_memory(
            p.manifest.bytes_per_endport * ports - table_bytes_[p.scheme],
            p.manifest.bytes_per_endport);
        digest.add(spec.title + "/" + p.scheme + "/" + std::to_string(p.vls) +
                   "/" + std::to_string(p.load));
        digest.add(scrubbed_json(p.result));
        check_point(spec, points, p, nodes, gate);
      }
      out.harness_overhead_s += wall - sims;
    }
    out.digest = digest.hex();
    return out;
  }

  void probe(Tracer& tr, Gate& gate, Metrics& out) override {
    double compile_s = 0.0;
    double bytes = 0.0;
    for (const auto& subnet : subnets_) compile_s += probe_compile(*subnet, tr);
    for (const auto& [scheme, b] : table_bytes_) bytes += b;
    emit_probes(*subnets_.back(), named_scheme("MLID"), compile_s, bytes,
                seed_, tr, gate, out);
  }

 private:
  static void check_point(const mlid::FigureSpec& spec,
                          const std::vector<mlid::SweepPoint>& points,
                          const mlid::SweepPoint& p, double nodes,
                          Gate& gate) {
    const std::string where = spec.title + " " + p.scheme + " " +
                              std::to_string(p.vls) + "VL load " +
                              std::to_string(p.load);
    if (p.result.packets_dropped > 0) {
      gate.op(false, where + ": dropped packets on a pristine fabric");
      return;
    }
    const double saturation =
        mlid::saturation_throughput(points, p.scheme, p.vls);
    const double offered =
        p.load / static_cast<double>(spec.sim.byte_time_ns);
    // The busiest endnode link's offered share of its bandwidth.  On centric
    // traffic the hot node takes hot_fraction of every other node's load:
    // 1.27 of its link on FT(8,3) at load 0.05, so no fig19 point is below
    // saturation even where the series' accepted maximum says otherwise.
    const double hot = spec.traffic.kind == mlid::TrafficKind::kCentric
                           ? spec.traffic.hot_fraction
                           : 0.0;
    const double hottest_link = p.load * (hot * (nodes - 1.0) + 1.0 - hot);
    const bool unsaturated = offered < kUnsaturated * saturation &&
                             hottest_link < kUnsaturated;
    gate.op(!unsaturated ||
                p.result.accepted_bytes_per_ns_per_node >= kCarried * offered,
            where + ": accepted traffic fell below the offered load");
  }

  std::uint64_t seed_;
  std::vector<mlid::FigureSpec> specs_;
  std::unique_ptr<FatTreeFabric> fabric_;
  std::vector<std::unique_ptr<Subnet>> subnets_;
  std::map<std::string, double> table_bytes_;  ///< routes bytes per scheme
};

// ---------------------------------------------------------------------------
// big_fabric / big_fabric_sharded: FT(16,4), PartialMLID LMC 2, uniform 0.3,
// 2 us warm-up + 10 us window, canonical event order.
class BigFabric final : public Workload {
 public:
  BigFabric(std::uint64_t seed, mlid::ShardOptions shards)
      : seed_(seed), shards_(shards) {}

  SetupTimes setup(Tracer& tr) override {
    SetupTimes t;
    subnet_.reset();
    fabric_.reset();
    fabric_ = tr.call("FatTreeFabric", t.topology_s, [] {
      return std::make_unique<FatTreeFabric>(FatTreeParams(16, 4));
    });
    subnet_ = tr.call("Subnet", t.bringup_s, [&] {
      return std::make_unique<Subnet>(*fabric_, scheme()(*fabric_));
    });
    tr.call(sharded() ? "ShardedSimulation::open_loop" : "Simulation::open_loop",
            t.construct_s, [&] {
              return sharded() ? open_sharded(false).memory_footprint()
                               : open_sequential(false).memory_footprint();
            });
    return t;
  }

  std::optional<std::string> reference(Tracer& tr, Gate& gate) override {
    if (!sharded()) return std::nullopt;
    // The sequential engine in canonical order is the sharded engine's
    // oracle: the profile-scrubbed results must match byte for byte.
    try {
      const Tracer::Scope scope(tr, "sequential oracle");
      mlid::Simulation sim = open_sequential(false);
      Digest digest;
      digest.add(scrubbed_json(sim.run()));
      return digest.hex();
    } catch (const std::exception& e) {
      gate.check(false, "sequential oracle threw: " + what_of(e));
      return std::nullopt;
    }
  }

  PassResult pass(Tracer& tr, bool profiled, Gate& gate) override {
    PassResult out;
    double construct = 0.0;  // set-up work, not part of the pass's wall time
    try {
      if (sharded()) {
        mlid::ShardedSimulation sim = tr.call(
            "ShardedSimulation::open_loop", construct,
            [&] { return open_sharded(profiled); });
        finish(tr.call("ShardedSimulation::run", out.wall_s,
                       [&] { return sim.run(); }),
               sim, out, gate);
      } else {
        mlid::Simulation sim =
            tr.call("Simulation::open_loop", construct,
                    [&] { return open_sequential(profiled); });
        finish(tr.call("Simulation::run", out.wall_s, [&] { return sim.run(); }),
               sim, out, gate);
      }
    } catch (const std::exception& e) {
      gate.op(false, "big fabric run threw: " + what_of(e));
    }
    return out;
  }

  void probe(Tracer& tr, Gate& gate, Metrics& out) override {
    emit_probes(*subnet_, scheme(), probe_compile(*subnet_, tr),
                static_cast<double>(subnet_->routes().memory_bytes()), seed_,
                tr, gate, out);
  }

 private:
  static SchemeFactory scheme() {
    return [](const FatTreeFabric& fabric) {
      return std::make_unique<mlid::PartialMlidRouting>(fabric.params(),
                                                        mlid::Lmc{2});
    };
  }
  [[nodiscard]] bool sharded() const { return shards_.shards > 1; }

  [[nodiscard]] SimConfig config(bool profiled) const {
    SimConfig cfg;
    cfg.warmup_ns = 2'000;
    cfg.measure_ns = 10'000;
    cfg.seed = seed_;
    cfg.profile = profiled;
    cfg.event_order = mlid::EventOrder::kCanonical;
    return cfg;
  }
  [[nodiscard]] mlid::TrafficConfig traffic() const {
    mlid::TrafficConfig t;
    t.kind = mlid::TrafficKind::kUniform;
    t.seed = seed_ ^ 0xB16F'AB21ull;
    return t;
  }
  static constexpr double kLoad = 0.3;

  [[nodiscard]] mlid::Simulation open_sequential(bool profiled) const {
    return mlid::Simulation::open_loop(*subnet_, config(profiled), traffic(),
                                       kLoad);
  }
  [[nodiscard]] mlid::ShardedSimulation open_sharded(bool profiled) const {
    return mlid::ShardedSimulation::open_loop(*subnet_, config(profiled),
                                              traffic(), kLoad, shards_);
  }

  template <class Engine>
  void finish(const SimResult& r, const Engine& sim, PassResult& out,
              Gate& gate) const {
    out.sim_s.push_back(out.wall_s);
    out.delivered = r.packets_delivered;
    out.layers.add(r);
    out.layers.add_queue(sim.queue_stats());
    const double engine = static_cast<double>(sim.memory_footprint());
    out.layers.add_memory(
        engine, (engine + static_cast<double>(subnet_->routes().memory_bytes())) /
                    total_ports(*fabric_));
    Digest digest;
    digest.add(scrubbed_json(r));
    out.digest = digest.hex();
    // Load 0.3 is past this fabric's single-VL saturation (about 0.20 is
    // accepted), so the carried-load check of paper_figs does not apply.
    gate.op(r.packets_dropped == 0 && r.packets_delivered > 0 &&
                r.packets_delivered <= r.packets_generated,
            "big fabric: drops on a pristine fabric or packets not conserved");
  }

  std::uint64_t seed_;
  mlid::ShardOptions shards_;
  std::unique_ptr<FatTreeFabric> fabric_;
  std::unique_ptr<Subnet> subnet_;
};

// ---------------------------------------------------------------------------
// scenario_suite: the four builtin scenarios on FT(4,3) over a fixed list of
// base seeds, one worker thread, sequential engine.
class ScenarioSuite final : public Workload {
 public:
  explicit ScenarioSuite(std::uint64_t seed) : seed_(seed) {
    for (std::uint64_t base = 1; base <= kBaseSeeds; ++base) {
      order_.push_back(base);
    }
    std::shuffle(order_.begin(), order_.end(), std::mt19937_64(seed));
    fabric_ = std::make_unique<FatTreeFabric>(FatTreeParams(4, 3));
    subnet_ = std::make_unique<Subnet>(*fabric_, "MLID");
    for (const std::string& name : kScenarios) {
      for (mlid::ScenarioRun& arm :
           mlid::make_scenario(name)->plan(*fabric_, /*quick=*/false)) {
        arms_.push_back(std::move(arm));
      }
    }
  }

  // What run_scenarios builds before each arm's first event, for every arm
  // of the four scenarios at one base seed: a fresh fabric, the arm's
  // subnet, a live SM when the arm schedules faults, and the arm's engine.
  SetupTimes setup(Tracer& tr) override {
    SetupTimes t;
    for (const mlid::ScenarioRun& arm : arms_) {
      const Tracer::Scope scope(tr, arm.arm);
      auto fabric = tr.call("FatTreeFabric", t.topology_s, [] {
        return std::make_unique<FatTreeFabric>(FatTreeParams(4, 3));
      });
      const auto subnet = tr.call("Subnet", t.bringup_s, [&] {
        return std::make_unique<Subnet>(*fabric, arm.scheme);
      });
      std::unique_ptr<mlid::SubnetManager> sm;
      mlid::OpenLoopOptions live;
      if (!arm.faults.empty()) {
        sm = tr.call("SubnetManager", t.bringup_s, [&] {
          return std::make_unique<mlid::SubnetManager>(*fabric, *subnet);
        });
        live.live_sm = sm.get();
        live.faults = arm.faults;
      }
      SimConfig cfg = arm.sim;
      cfg.event_order = mlid::EventOrder::kCanonical;
      if (arm.closed_loop) {
        tr.call("Simulation::burst", t.construct_s, [&] {
          return mlid::Simulation::burst(*subnet, cfg, arm.workload)
              .memory_footprint();
        });
      } else {
        tr.call("Simulation::open_loop", t.construct_s, [&] {
          return mlid::Simulation::open_loop(*subnet, cfg, arm.traffic,
                                             arm.offered_load, live)
              .memory_footprint();
        });
      }
    }
    return t;
  }

  PassResult pass(Tracer& tr, bool profiled, Gate& gate) override {
    PassResult out;
    // One digest per base seed, combined in seed order below, so the
    // digest does not depend on the run order.
    std::vector<Digest> per_seed(kBaseSeeds);
    const double ports = total_ports(*fabric_);
    const double table = static_cast<double>(subnet_->routes().memory_bytes());
    for (const std::uint64_t base : order_) {
      Digest& digest = per_seed[base - 1];
      mlid::ScenarioSweepOptions options;
      options.threads = 1;
      options.shards = 1;
      options.base_seed = base;
      options.profile = profiled;
      const std::string seed_tag = " (base seed " + std::to_string(base) + ")";
      std::vector<mlid::ScenarioReport> reports;
      double wall = 0.0;
      try {
        reports = tr.call("run_scenarios", wall,
                          [&] { return mlid::run_scenarios(kScenarios, options); });
      } catch (const std::exception& e) {
        for (const std::string& name : kScenarios) {
          gate.op(false, name + seed_tag + ": run_scenarios threw: " + what_of(e));
        }
        continue;
      }
      out.wall_s += wall;
      double sims = 0.0;
      for (const mlid::ScenarioReport& report : reports) {
        std::string problem;
        for (const mlid::ScenarioPoint& p : report.points) {
          sims += p.manifest.wall_seconds;
          out.sim_s.push_back(p.manifest.wall_seconds);
          out.layers.add_queue(p.manifest.queue);
          out.layers.add_memory(p.manifest.bytes_per_endport * ports - table,
                                p.manifest.bytes_per_endport);
          digest.add(report.name + "/" + p.arm);
          if (p.closed_loop) {
            out.delivered += p.burst.packets;
            out.layers.events += static_cast<double>(p.burst.events_processed);
            digest.add(mlid::to_json(p.burst));
            continue;
          }
          out.delivered += p.sim.packets_delivered;
          out.layers.add(p.sim);
          digest.add(scrubbed_json(p.sim));
          if (p.sim.packets_dropped > 0 && p.sim.first_fault_ns < 0) {
            problem = p.arm + " dropped packets on a pristine fabric";
          }
        }
        bool known = false;
        for (const mlid::ContractCheck& c : report.checks) {
          if (c.passed) continue;
          if (is_known_miss(base, report.name, c.name)) {
            known = true;
          } else {
            problem = "contract " + c.name + " violated (measured " +
                      std::to_string(c.measured) + ", bound " +
                      std::to_string(c.bound) + ")";
          }
        }
        const std::string op = report.name + seed_tag;
        if (known && problem.empty()) {
          gate.known_failure(op + ": contract victim-avg-cc-ratio violated");
        } else {
          gate.op(problem.empty(), op + ": " + problem);
        }
      }
      out.harness_overhead_s += wall - sims;
    }
    Digest digest;
    for (const Digest& d : per_seed) digest.add(d.hex());
    out.digest = digest.hex();
    return out;
  }

  void probe(Tracer& tr, Gate& gate, Metrics& out) override {
    emit_probes(*subnet_, named_scheme("MLID"), probe_compile(*subnet_, tr),
                static_cast<double>(subnet_->routes().memory_bytes()), seed_,
                tr, gate, out);
  }

 private:
  static constexpr std::uint64_t kBaseSeeds = 40;
  inline static const std::vector<std::string> kScenarios = {
      "incast", "multi-tenant", "mice-elephants", "churn"};

  // Recorded finding: base seed 11 puts incast's CC-on victim mean at
  // 1.516x CC-off, over the 1.50x bound.  Reported, not re-seeded away.
  static bool is_known_miss(std::uint64_t base, const std::string& scenario,
                            const std::string& contract) {
    return base == 11 && scenario == "incast" &&
           contract == "victim-avg-cc-ratio";
  }

  std::uint64_t seed_;
  std::vector<std::uint64_t> order_;
  std::unique_ptr<FatTreeFabric> fabric_;  ///< accounting and probes
  std::unique_ptr<Subnet> subnet_;
  std::vector<mlid::ScenarioRun> arms_;    ///< every scenario's plan
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "paper_figs") return std::make_unique<PaperFigs>(seed);
  if (name == "big_fabric") return std::make_unique<BigFabric>(seed, mlid::ShardOptions{1, 1});
  if (name == "big_fabric_sharded") {
    // Four shards on one worker thread.  On a shared host every 20 ns window
    // of a multi-threaded run waits for its slowest thread: at two threads
    // a run's median pass moved by a third with the host's load, at four it
    // stalled for seconds.  One thread still runs the windows, mailbox
    // drains and cross-shard handoffs.
    return std::make_unique<BigFabric>(seed, mlid::ShardOptions{4, 1});
  }
  if (name == "scenario_suite") return std::make_unique<ScenarioSuite>(seed);
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"paper_figs", "big_fabric", "big_fabric_sharded", "scenario_suite"};
}

}  // namespace perfbench
