// Regression coverage for the sharded interval sampler.  The original
// sharded driver silently dropped SimConfig::sample_interval_ns: every
// sharded run came back with an empty timeline while the sequential run
// produced one, so dashboards fed from sharded sweeps lost their
// time-resolved series without any error.  The sampler is now driver-owned
// (windows are clipped at each pending sample time and every shard's gauges
// merge into one TimelineSample), which makes the sharded timeline
// bit-identical to the sequential engine's -- asserted here through the
// JSON export, like the other parity gates.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "harness/report.hpp"
#include "obs/stream.hpp"
#include "parallel/sharded.hpp"
#include "sim/engine.hpp"

namespace mlid {
namespace {

SimConfig sampled_canonical() {
  SimConfig cfg;
  cfg.warmup_ns = 5'000;
  cfg.measure_ns = 20'000;
  cfg.seed = 7;
  cfg.event_order = EventOrder::kCanonical;
  cfg.sample_interval_ns = 1'000;
  return cfg;
}

TEST(ShardedTimeline, SampledRunsAreBitIdentical) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  const SimResult oracle =
      Simulation::open_loop(subnet, sampled_canonical(), traffic, 0.6).run();
  ASSERT_TRUE(oracle.timeline.enabled());
  ASSERT_FALSE(oracle.timeline.samples.empty());
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const SimResult sharded =
        ShardedSimulation::open_loop(subnet, sampled_canonical(), traffic,
                                     0.6, {shards, 0})
            .run();
    // The regression this pins: sharded runs used to come back with
    // timeline.enabled() == false whenever shards > 1.
    EXPECT_TRUE(sharded.timeline.enabled()) << "shards " << shards;
    EXPECT_EQ(sharded.timeline.samples.size(), oracle.timeline.samples.size())
        << "shards " << shards;
    EXPECT_EQ(to_json(oracle), to_json(sharded)) << "shards " << shards;
  }
}

TEST(ShardedTimeline, ThreadCountDoesNotChangeSamples) {
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  const SimResult oracle =
      Simulation::open_loop(subnet, sampled_canonical(), traffic, 0.6).run();
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    const SimResult sharded =
        ShardedSimulation::open_loop(subnet, sampled_canonical(), traffic,
                                     0.6, {4, threads})
            .run();
    EXPECT_EQ(to_json(oracle), to_json(sharded)) << "threads " << threads;
  }
}

TEST(ShardedTimeline, DecimationMatchesSequential) {
  // Force the cap low enough that the sampler decimates mid-run; the
  // driver-owned sampler must reproduce the sequential doubling cadence.
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  SimConfig cfg = sampled_canonical();
  cfg.sample_interval_ns = 200;
  cfg.timeline_max_samples = 16;
  const SimResult oracle =
      Simulation::open_loop(subnet, cfg, traffic, 0.6).run();
  ASSERT_GT(oracle.timeline.interval_ns, 200);  // decimation actually fired
  for (const std::uint32_t shards : {2u, 4u}) {
    const SimResult sharded =
        ShardedSimulation::open_loop(subnet, cfg, traffic, 0.6, {shards, 0})
            .run();
    EXPECT_EQ(sharded.timeline.interval_ns, oracle.timeline.interval_ns)
        << "shards " << shards;
    EXPECT_EQ(to_json(oracle), to_json(sharded)) << "shards " << shards;
  }
}

TEST(ShardedTimeline, BurstSamplingIsRejected) {
  // Burst mode has no fixed horizon for the driver to pace samples against;
  // the combination must fail loudly, not silently drop the timeline.
  const FatTreeFabric fabric{FatTreeParams(4, 2)};
  const Subnet subnet(fabric, "MLID");
  const auto workload = all_to_all_personalized(4, 256);
  SimConfig cfg;
  cfg.event_order = EventOrder::kCanonical;
  cfg.sample_interval_ns = 1'000;
  EXPECT_THROW(ShardedSimulation::burst(subnet, cfg, workload, {2, 0}),
               ContractViolation);
}

// --- both interval-observer sinks at once -----------------------------------
// The timeline and the JSONL stream share one pacing loop per engine.  These
// cases turn both on together and hold the sharded driver to the sequential
// engine on each sink: the Timeline compares equal, and every "window" line
// matches field by field except the host wall_ns stamp and the shard count.

using JsonFields = std::map<std::string, std::string>;

// Splits one flat JSONL object into key -> raw value text (window lines hold
// no nested objects or commas inside values).
JsonFields parse_flat_line(const std::string& line) {
  JsonFields fields;
  const std::string body = line.substr(1, line.size() - 2);
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string item = body.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    fields[item.substr(0, colon)] = item.substr(colon + 1);
    pos = comma + 1;
  }
  return fields;
}

std::vector<JsonFields> window_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<JsonFields> windows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"kind\":\"window\"", 0) == 0) {
      windows.push_back(parse_flat_line(line));
    }
  }
  return windows;
}

struct SinkCase {
  const char* name;
  SimTime sample_ns;
  std::uint32_t max_samples;
  SimTime stream_ns;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const SinkCase& c, std::ostream* os) { *os << c.name; }

class BothSinks : public ::testing::TestWithParam<SinkCase> {};

TEST_P(BothSinks, ShardedMatchesSequentialOnEverySink) {
  const SinkCase& c = GetParam();
  const FatTreeFabric fabric{FatTreeParams(4, 3)};
  const Subnet subnet(fabric, "MLID");
  const TrafficConfig traffic{TrafficKind::kUniform, 0.2, 0, 9};
  SimConfig cfg = sampled_canonical();
  cfg.sample_interval_ns = c.sample_ns;
  cfg.timeline_max_samples = c.max_samples;

  const auto run = [&](std::uint32_t shards, std::uint32_t threads,
                       const std::string& path) {
    MetricsStreamer stream(path, c.stream_ns);
    OpenLoopOptions options;
    options.metrics = &stream;
    if (shards == 0) {
      return Simulation::open_loop(subnet, cfg, traffic, 0.6, options).run();
    }
    return ShardedSimulation::open_loop(subnet, cfg, traffic, 0.6,
                                        {shards, threads}, options)
        .run();
  };
  const std::string dir = ::testing::TempDir() + "/both_sinks_" + c.name;
  const SimResult oracle = run(0, 0, dir + "_seq.jsonl");
  const std::vector<JsonFields> oracle_windows =
      window_lines(dir + "_seq.jsonl");
  ASSERT_FALSE(oracle.timeline.samples.empty());
  ASSERT_FALSE(oracle_windows.empty());
  if (c.max_samples < 64) {
    ASSERT_GT(oracle.timeline.decimations, 0u) << "cap too loose to decimate";
  }

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u}) {
      const std::string path = dir + "_" + std::to_string(shards) + "x" +
                               std::to_string(threads) + ".jsonl";
      const SimResult sharded = run(shards, threads, path);
      EXPECT_EQ(sharded.timeline, oracle.timeline)
          << shards << " shards x " << threads << " threads";
      std::vector<JsonFields> windows = window_lines(path);
      ASSERT_EQ(windows.size(), oracle_windows.size())
          << shards << " shards x " << threads << " threads";
      for (std::size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(windows[i]["\"shards\""], std::to_string(shards));
        JsonFields want = oracle_windows[i];
        for (JsonFields* f : {&windows[i], &want}) {
          f->erase("\"wall_ns\"");
          f->erase("\"shards\"");
        }
        EXPECT_EQ(windows[i], want) << "window " << i << ", " << shards
                                    << " shards x " << threads << " threads";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cadences, BothSinks,
    ::testing::Values(SinkCase{"non_coincident", 1'000, 4096, 2'500},
                      SinkCase{"coincident", 1'000, 4096, 1'000},
                      SinkCase{"decimating", 200, 16, 700}),
    [](const ::testing::TestParamInfo<SinkCase>& sink) {
      return std::string(sink.param.name);
    });

}  // namespace
}  // namespace mlid
