// Benchmark program for the MLID fat-tree simulator.
//
//   perfbench_mlid --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Sets the workload up repeatedly (setup_s is the fastest set-up), then
// repeats the workload's unit of work ("pass") until S seconds have
// elapsed.  --trace 0 prints the end-to-end metrics, built from each timed
// piece's fastest pass;
// --trace 1 alternates untraced passes with traced ones (engine
// self-profiler on, spans recorded), runs the routing/subnet layer probes
// and prints the per-layer metrics.  The last stdout line is the result object; the lines
// before it carry provenance and the result digest.  Exit 2 on bad
// arguments, 3 on an unoptimised or sanitizer build.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_mlid --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               error.c_str());
  for (const std::string& w : workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

template <class T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size()) {
    usage("bad value for " + std::string(flag) + ": '" + std::string(text) +
          "'");
  }
  return value;
}

Args parse(int argc, char** argv) {
  Args args;
  bool seen_workload = false, seen_seed = false, seen_seconds = false,
       seen_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      seen_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(flag, value);
      seen_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(flag, value);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      seen_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      seen_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!(seen_workload && seen_seed && seen_seconds && seen_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Numbers from a debug or sanitizer build say nothing about the simulator.
const char* unfit_build() {
  const std::string_view type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is not Release or RelWithDebInfo";
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "unoptimised build (needs -O and NDEBUG)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#endif
#endif
  return nullptr;
}

void write_provenance(mlid::JsonWriter& json) {
  json.begin_object();
  json.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("cpu_model").value(cpu_model());
  json.key("compiler").value(compiler());
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("git_describe").value(mlid::git_describe());
  json.end_object();
}

void write_strings(mlid::JsonWriter& json, const std::vector<std::string>& items) {
  json.begin_array();
  for (const std::string& item : items) json.value(item);
  json.end_array();
}

template <class T, class F>
double median_of(const std::vector<T>& items, F f) {
  std::vector<double> values;
  for (const T& item : items) values.push_back(f(item));
  return median(std::move(values));
}

// One pass's timed pieces (each simulation, and the run calls' time outside
// them), each at its fastest over all untraced passes.  On a shared VM the
// host's speed drifts by tens of percent, over seconds and over minutes, so
// a plain median over passes moves from run to run with it.  Every piece
// runs on one thread and cannot run faster than its own cost, so its
// fastest pass is the reading the drift moves least.
struct PassPieces {
  std::vector<double> sims;
  double overhead_s = 0.0;
  [[nodiscard]] double wall_s() const {
    double wall = overhead_s;
    for (const double s : sims) wall += s;
    return wall;
  }
};

PassPieces fastest_pieces(const std::vector<PassResult>& passes) {
  PassPieces out{passes.front().sim_s, passes.front().harness_overhead_s};
  for (const PassResult& p : passes) {
    for (std::size_t i = 0; i < out.sims.size() && i < p.sim_s.size(); ++i) {
      out.sims[i] = std::min(out.sims[i], p.sim_s[i]);
    }
    out.overhead_s = std::min(out.overhead_s, p.harness_overhead_s);
  }
  return out;
}

// Set-up runs on one thread too: the fastest one, for the same reason.
template <class F>
double fastest_setup(const std::vector<SetupTimes>& setups, F f) {
  double best = f(setups.front());
  for (const SetupTimes& s : setups) best = std::min(best, f(s));
  return best;
}

void end_to_end(const std::vector<SetupTimes>& setups, const PassPieces& pass,
                std::uint64_t delivered, double peak_rss, Metrics& m) {
  m.set("setup_s", fastest_setup(setups, [](const SetupTimes& s) { return s.total(); }), "s");
  m.set("wall_s", pass.wall_s(), "s");
  m.set("pkts_per_s", static_cast<double>(delivered) / pass.wall_s(), "1/s");
  m.set("point_p50_ms", quantile(pass.sims, 0.5) * 1e3, "ms");
  m.set("point_p90_ms", quantile(pass.sims, 0.9) * 1e3, "ms");
  m.set("peak_rss_mib", peak_rss, "MiB");
}

void per_layer(const std::vector<SetupTimes>& setups,
               const std::vector<PassResult>& plain,
               const std::vector<PassResult>& traced, Metrics& m) {
  const auto med = [&](auto f) { return median_of(traced, f); };
  // Counters repeat exactly across passes; read them off the first.
  const LayerCounters& c = traced.front().layers;
  const double wall = med([](const PassResult& p) { return p.wall_s; });
  m.set("topology.build_s", fastest_setup(setups, [](const SetupTimes& s) { return s.topology_s; }), "s");
  m.set("subnet.bringup_s", fastest_setup(setups, [](const SetupTimes& s) { return s.bringup_s; }), "s");
  m.set("sim.construct_s", fastest_setup(setups, [](const SetupTimes& s) { return s.construct_s; }), "s");
  m.set("sim.engine_bytes", c.engine_bytes, "bytes");
  m.set("sim.bytes_per_endport", c.bytes_per_endport, "bytes");
  m.set("sim.events", c.events, "count");
  m.set("sim.events_per_s", c.events / wall, "1/s");
  m.set("sim.ns_per_event", wall * 1e9 / c.events, "ns");
  m.set("sim.queue.buckets", c.queue_buckets, "count");
  m.set("sim.queue.resizes", c.queue_resizes, "count");
  m.set("sim.queue.max_bucket_events", c.queue_max_bucket, "count");
  m.set("sim.queue.overflow_pushes", c.queue_overflow, "count");
  m.set("obs.processing_s", med([](const PassResult& p) { return p.layers.processing_ns / 1e9; }), "s");
  m.set("obs.control_s", med([](const PassResult& p) { return p.layers.control_ns / 1e9; }), "s");
  m.set("parallel.barrier_wait_frac", med([](const PassResult& p) {
          const double busy = p.layers.processing_ns + p.layers.barrier_ns;
          return busy > 0.0 ? p.layers.barrier_ns / busy : 0.0;
        }), "fraction");
  m.set("parallel.mailbox_s", med([](const PassResult& p) { return p.layers.mailbox_ns / 1e9; }), "s");
  m.set("parallel.windows", c.windows, "count");
  m.set("parallel.window_ns_mean", c.windows > 0 ? c.window_ns_sum / c.windows : 0.0, "ns");
  m.set("parallel.handoffs", c.handoffs, "count");
  m.set("parallel.mean_imbalance", med([](const PassResult& p) {
          return p.layers.imbalance_runs > 0
                     ? p.layers.imbalance_sum / p.layers.imbalance_runs
                     : 0.0;
        }), "ratio");
  m.set("sm.traps", c.sm_traps, "count");
  m.set("sm.sweeps", c.sm_sweeps, "count");
  m.set("sm.entries_programmed", c.sm_entries, "count");
  m.set("cc.becn_sent", c.becn_sent, "count");
  m.set("cc.fecn_marked", c.fecn_marked, "count");
  m.set("harness.sweep_overhead_s", med([](const PassResult& p) { return p.harness_overhead_s; }), "s");
  m.set("obs.trace_overhead",
        wall / median_of(plain, [](const PassResult& p) { return p.wall_s; }),
        "ratio");
}

// glibc raises its mmap threshold the first time a large block is freed.
// From then on set-ups reuse heap pages instead of faulting fresh ones in,
// so a sharded FT(16,4) set-up took 19-34 ms across runs, depending on how
// many samples fell before that moment.  Fixed thresholds that no block
// reaches make every set-up after the first reuse the pages of the one
// before, from the start of the run, so setup_s measures construction, not
// the kernel's page faults.  With glibc's default threshold pinned instead,
// every sharded set-up faulted its 58 MB engine in afresh: its fastest
// reading was 18-30 ms over ten runs, against 13-16 ms in eight of ten with
// the pages kept.
void pin_allocator() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 512 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1024 * 1024 * 1024);
#endif
}

// Hands the free heap back to the kernel before a pass, so the pass faults
// its memory in as a fresh process would and peak RSS holds no freed set-up
// memory.
void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  pin_allocator();
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "error: refusing to report numbers: %s\n", why);
    return 3;
  }

  Tracer tracer;
  Gate gate;

  // Set-ups: a first series, then one after every pass, so the fastest is
  // looked for over the whole run rather than one moment of the host.
  std::vector<SetupTimes> setups;
  const auto sample_setups = [&](std::size_t min_count, double min_seconds) {
    tracer.record(args.trace && setups.empty());  // spans of the first only
    const Clock::time_point begin = Clock::now();
    for (std::size_t n = 0;
         n < min_count || seconds_between(begin, Clock::now()) < min_seconds;
         ++n) {
      const Tracer::Scope scope(tracer, "setup");
      setups.push_back(workload->setup(tracer));
    }
    tracer.record(false);
  };
  sample_setups(3, 0.25);

  // Passes until the measuring time is up; in trace mode untraced and
  // traced passes alternate so both see the same machine state.
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  const Clock::time_point start = Clock::now();
  while (plain.empty() || (args.trace && traced.empty()) ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const bool traced_pass = args.trace && traced.size() < plain.size();
    release_free_heap();
    tracer.record(traced_pass);
    {
      const Tracer::Scope scope(tracer, "pass");
      (traced_pass ? traced : plain)
          .push_back(workload->pass(tracer, traced_pass, gate));
    }
    tracer.record(false);
    sample_setups(1, 0.05);
  }

  // Read before the oracle runs, so the peak is the measured engine's own.
  const double peak_rss = peak_rss_mib();
  const std::optional<std::string> reference = workload->reference(tracer, gate);

  const std::string digest = plain.front().digest;
  for (const auto* passes : {&plain, &traced}) {
    for (const PassResult& p : *passes) {
      gate.check(p.digest == digest,
                 passes == &plain
                     ? "results differ between identical passes"
                     : "results differ with the profiler and spans on");
    }
  }
  if (reference) {
    gate.check(*reference == digest,
               "sharded results differ from the sequential oracle");
  }

  Metrics metrics;
  if (args.trace) {
    tracer.record(true);
    workload->probe(tracer, gate, metrics);
    per_layer(setups, plain, traced, metrics);
  } else {
    end_to_end(setups, fastest_pieces(plain), plain.front().delivered,
               peak_rss, metrics);
  }

  mlid::JsonWriter info;
  info.begin_object();
  info.key("workload").value(args.workload);
  info.key("seed").value(args.seed);
  info.key("result_digest").value(digest);
  info.key("setups").value(static_cast<std::uint64_t>(setups.size()));
  info.key("passes").value(static_cast<std::uint64_t>(plain.size()));
  info.key("traced_passes").value(static_cast<std::uint64_t>(traced.size()));
  info.key("pass_wall_s").begin_array();
  for (const PassResult& p : plain) info.value(p.wall_s);
  info.end_array();
  info.key("points").value(static_cast<std::uint64_t>(plain.front().sim_s.size()));
  info.key("known_failures");
  write_strings(info, gate.known());
  info.key("problems");
  write_strings(info, gate.problems());
  info.end_object();

  mlid::JsonWriter provenance;
  write_provenance(provenance);
  if (args.trace && !args.trace_out.empty() &&
      !tracer.write(args.trace_out, "{\"provenance\":" + provenance.str() +
                                        ",\"info\":" + info.str() + "}")) {
    std::fprintf(stderr, "warning: could not write %s\n", args.trace_out.c_str());
  }

  mlid::JsonWriter result;
  result.begin_object();
  result.key("correct").value(gate.correct());
  result.key("attempted").value(gate.attempted());
  result.key("failed").value(gate.failed());
  result.key("metrics");
  metrics.write(result);
  result.end_object();
  std::printf("{\"provenance\":%s}\n", provenance.str().c_str());
  std::printf("{\"info\":%s}\n", info.str().c_str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}
