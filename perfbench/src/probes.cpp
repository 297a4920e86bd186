#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "routing/path.hpp"
#include "sim/fault_schedule.hpp"
#include "subnet/sm.hpp"

namespace perfbench {

namespace {

constexpr int kPairs = 4096;
constexpr int kRepeats = 5;

struct Pair {
  mlid::NodeId src = 0;
  mlid::NodeId dst = 0;
  mlid::Lid dlid = 0;
};

std::vector<Pair> sample_pairs(const mlid::Subnet& subnet,
                               std::uint64_t seed) {
  const std::uint32_t nodes = subnet.fabric().params().num_nodes();
  std::mt19937_64 rng(seed ^ 0x7A11'9A7Bull);
  std::uniform_int_distribution<std::uint32_t> pick(0, nodes - 1);
  std::vector<Pair> pairs;
  pairs.reserve(kPairs);
  while (pairs.size() < kPairs) {
    const mlid::NodeId src = pick(rng);
    const mlid::NodeId dst = pick(rng);
    if (src == dst) continue;
    pairs.push_back({src, dst, subnet.select_dlid(src, dst)});
  }
  return pairs;
}

/// trace_path's walk, but over the SM's live (repaired) tables.
bool walk_live(const mlid::FatTreeFabric& ft, const mlid::SubnetManager& sm,
               const Pair& p) {
  const mlid::Fabric& g = ft.fabric();
  mlid::DeviceId current = ft.node_device(p.src);
  mlid::PortId out = 1;
  for (int hop = 0; hop < 64; ++hop) {
    const mlid::PortRef next = g.peer_of(current, out);
    if (!next.valid()) return false;
    current = next.device;
    const mlid::Device& device = g.device(current);
    if (device.kind() == mlid::DeviceKind::kEndnode) {
      return current == ft.node_device(p.dst);
    }
    out = sm.lft(device.switch_id).find(p.dlid);
    if (out == mlid::CompactLft::kNoEntry) return false;
  }
  return false;
}

}  // namespace

double probe_trace_path(const mlid::Subnet& subnet, std::uint64_t seed,
                        Tracer& tracer, Gate& gate) {
  const std::vector<Pair> pairs = sample_pairs(subnet, seed);
  const mlid::FatTreeFabric& ft = subnet.fabric();
  std::vector<double> per_walk_ns;
  bool all_complete = true;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double seconds = 0.0;
    {
      const Tracer::Scope scope(tracer, "trace_path x4096", &seconds);
      for (const Pair& p : pairs) {
        const mlid::PathTrace trace =
            mlid::trace_path(ft, subnet.routes(), p.src, p.dlid);
        all_complete &= trace.complete && trace.terminal == ft.node_device(p.dst);
      }
    }
    per_walk_ns.push_back(seconds * 1e9 / kPairs);
  }
  gate.check(all_complete, "trace_path: a pristine walk missed its destination");
  return median(per_walk_ns);
}

double probe_compile(const mlid::Subnet& subnet, Tracer& tracer) {
  std::vector<double> samples;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double seconds = 0.0;
    tracer.call("CompiledRoutes", seconds, [&] {
      return mlid::CompiledRoutes(subnet.fabric(), subnet.scheme()).num_switches();
    });
    samples.push_back(seconds);
  }
  return median(samples);
}

RepairProbe probe_repair(const mlid::FatTreeParams& params,
                         const SchemeFactory& scheme, std::uint64_t seed,
                         Tracer& tracer, Gate& gate) {
  mlid::FatTreeFabric fabric(params);
  const mlid::Subnet subnet(fabric, scheme(fabric));
  mlid::SubnetManager sm(fabric, subnet);
  const mlid::FaultSchedule fault =
      mlid::FaultSchedule::random_uplink_failures(fabric, 1, 0, seed);
  const mlid::FaultEvent ev = fault.events().front();

  RepairProbe out;
  double seconds = 0.0;
  {
    const Tracer::Scope cycle(tracer, "SubnetManager repair cycle", &seconds);
    double ignored = 0.0;
    std::vector<mlid::SubnetManager::TrapSchedule> traps =
        tracer.call("SubnetManager::on_link_fail", ignored,
                    [&] { return sm.on_link_fail(ev.dev_a, ev.port_a, 0); });
    std::sort(traps.begin(), traps.end(),
              [](const auto& a, const auto& b) { return a.at < b.at; });
    // Every trap of a single failure lands before the sweep it starts
    // completes, so traps first, then sweeps, then their programs is the
    // engine's event order.
    std::vector<mlid::SimTime> sweeps_done;
    for (const auto& trap : traps) {
      const std::optional<mlid::SimTime> done = tracer.call(
          "SubnetManager::on_trap", ignored,
          [&] { return sm.on_trap(trap.reporter, trap.port, trap.at); });
      if (done) sweeps_done.push_back(*done);
    }
    for (const mlid::SimTime done : sweeps_done) {
      const std::vector<mlid::SubnetManager::ProgramOp> ops = tracer.call(
          "SubnetManager::on_sweep_done", ignored,
          [&] { return sm.on_sweep_done(done); });
      tracer.call("SubnetManager::apply_program", ignored, [&] {
        for (const auto& op : ops) sm.apply_program(op.plan_index, op.epoch, op.at);
      });
    }
  }
  gate.check(sm.converged(), "repair probe: SM did not converge");
  out.repair_ms = seconds * 1e3;
  for (std::size_t sw = 0; sw < params.num_switches(); ++sw) {
    out.overlay_entries += static_cast<double>(
        sm.lft(static_cast<mlid::SwitchId>(sw)).overlay_entries());
  }

  const std::vector<Pair> pairs = sample_pairs(subnet, seed);
  std::vector<double> per_walk_ns;
  bool all_reach = true;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double walk_s = 0.0;
    {
      const Tracer::Scope scope(tracer, "sm.lft() walk x4096", &walk_s);
      for (const Pair& p : pairs) all_reach &= walk_live(fabric, sm, p);
    }
    per_walk_ns.push_back(walk_s * 1e9 / kPairs);
  }
  gate.check(all_reach, "repair probe: a repaired walk missed its destination");
  out.repaired_walk_ns = median(per_walk_ns);
  return out;
}

}  // namespace perfbench
