// Layer probes for the traced run: timed calls into the routing and subnet
// layers outside any simulation, on the workload's own fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "harness.hpp"
#include "routing/scheme.hpp"
#include "subnet/subnet.hpp"

namespace perfbench {

using SchemeFactory = std::function<std::unique_ptr<mlid::RoutingScheme>(
    const mlid::FatTreeFabric&)>;

/// `mlid::trace_path` over a fixed seeded sample of (src, dst) pairs on
/// pristine tables: host ns per walk (median of repeats).  Every walk must
/// complete at the destination's endnode.
double probe_trace_path(const mlid::Subnet& subnet, std::uint64_t seed,
                        Tracer& tracer, Gate& gate);

/// CompiledRoutes construction for one subnet's scheme: host seconds
/// (median of repeats).
double probe_compile(const mlid::Subnet& subnet, Tracer& tracer);

struct RepairProbe {
  double repair_ms = 0.0;           ///< fail -> trap -> sweep -> program
  double overlay_entries = 0.0;     ///< repair deviations left in the LFTs
  double repaired_walk_ns = 0.0;    ///< host ns per walk over sm.lft()
};

/// One seeded inter-switch uplink failure driven through the
/// SubnetManager callbacks on a fresh fabric until the SM converges, then
/// path walks through the repaired live tables (`sm.lft()`) for the same
/// pair sample as probe_trace_path.  Each walk must reach its destination
/// without crossing the failed link.
RepairProbe probe_repair(const mlid::FatTreeParams& params,
                         const SchemeFactory& scheme, std::uint64_t seed,
                         Tracer& tracer, Gate& gate);

}  // namespace perfbench
