#!/usr/bin/env python3
"""Schema and smoke checks for the bench outputs the CI workflow produces.

Run from the build directory after the matching bench, one subcommand per
CI step:

    python3 ../tools/check_bench_json.py telemetry

Each subcommand reads the files its bench wrote to the current directory
and fails with an AssertionError naming the offending field.
"""
import argparse
import json
import os
import subprocess
import time


def check_adaptive():
    """BENCH_adaptive.json: v8 schema plus the per-series policy / VL-map
    provenance of ablation_adaptive."""
    with open("BENCH_adaptive.json") as f:
        doc = json.load(f)
    assert doc["schema"] == "mlid-bench-v8", doc.get("schema")
    results = {r["series"]: r for r in doc["results"]}
    for cc in ("nocc", "cc"):
        for scheme in ("SLID", "MLID"):
            for policy in ("deterministic", "adaptive"):
                r = results[f"{cc}/{scheme}/{policy}"]
                assert r["manifest"]["policy"] == policy, r["series"]
                assert r["manifest"]["vl_map"] == "none", r["series"]
                # mlid-bench-v7: non-scenario runs carry the "none"
                # provenance marker.
                assert r["manifest"]["scenario"] == "none", r["series"]
                assert r["packets_delivered"] > 0, r["series"]
    for scheme in ("SLID", "MLID"):
        for vl_map in ("none", "dest-mod", "flow-hash"):
            r = results[f"vlmap/{scheme}/{vl_map}"]
            assert r["manifest"]["policy"] == "deterministic"
            assert r["manifest"]["vl_map"] == vl_map, r["series"]
    print(f"adaptive BENCH schema OK: {len(results)} series")


def check_telemetry():
    """BENCH_fig12_uniform_4port_3tree.json and BENCH_ablation_congestion.json:
    the v3-v8 manifest, telemetry, CC and timeline fields."""
    with open("BENCH_fig12_uniform_4port_3tree.json") as f:
        doc = json.load(f)
    assert doc["schema"] == "mlid-bench-v8", doc.get("schema")
    m = doc["manifest"]
    for key in ("git", "seed", "threads", "quick", "wall_seconds",
                "events_processed", "events_per_sec"):
        assert key in m, f"manifest missing {key}"
    assert m["events_processed"] > 0
    points = doc["figures"][0]["points"]
    assert points, "figure has no points"
    for p in points:
        assert p["telemetry"] is True
        assert p["p50_latency_ns"] <= p["p95_latency_ns"] <= \
            p["p99_latency_ns"]
        assert p["latency_log2_hist"]["total"] == \
            sum(p["latency_log2_hist"]["counts"])
        links = p["link_summary"]
        assert links["links"] > 0
        assert links["max_utilization"] >= links["mean_utilization"]
        # mlid-bench-v3: victim/hot split + cc_enabled are always
        # present; the cc object only when congestion control ran.
        assert p["cc_enabled"] is False and "cc" not in p
        assert p["victim_packets"] == p["hot_packets"] == 0  # uniform
        assert links["total_fecn_marks"] == 0
        assert p["events_scheduled"] >= p["events_processed"]
        assert {"sim_seed", "traffic_seed", "wall_seconds",
                "events_processed", "events_scheduled",
                "threads", "shards", "bytes_per_endport",
                "policy", "vl_map",
                "event_queue"} <= p["manifest"].keys()
        # mlid-bench-v4: the manifest records the actual parallelism.
        assert p["manifest"]["threads"] >= 1
        assert p["manifest"]["shards"] >= 1
        # mlid-bench-v5: ... and the hot bytes per fabric port.
        assert p["manifest"]["bytes_per_endport"] > 0
        # mlid-bench-v6: ... and the resolved forwarding/VL policies
        # (registry names; this figure runs the defaults) plus the
        # scheme as its registry string.
        assert p["manifest"]["policy"] == "deterministic"
        assert p["manifest"]["vl_map"] == "none"
        assert p["scheme"] in ("SLID", "MLID"), p["scheme"]
        # mlid-bench-v7: scenario provenance + tenant accounting.
        # This figure is not a scenario run and has no tenants.
        assert p["manifest"]["scenario"] == "none"
        assert p["tenant_count"] == 0 and "tenants" not in p
        q = p["manifest"]["event_queue"]
        assert q["kind"] in ("heap", "ladder"), q
        assert q["kind"] != "ladder" or q["buckets"] > 0
        # mlid-bench-v8: self-profiling provenance.  Every point
        # manifest carries the profile block (disabled here -- this
        # figure runs without --profile) and every result says
        # whether it was profiled.
        assert p["profile_enabled"] is False and "profile" not in p
        prof = p["manifest"]["profile"]
        assert prof["enabled"] is False
        assert {"shards", "windows", "barrier_wait_fraction",
                "max_imbalance", "queue_pushes",
                "shard_phases"} <= prof.keys()
    print(f"BENCH schema OK: {len(points)} points")

    with open("BENCH_ablation_congestion.json") as f:
        doc = json.load(f)
    assert doc["schema"] == "mlid-bench-v8", doc.get("schema")
    on = [r for r in doc["results"] if r["cc_enabled"]]
    off = [r for r in doc["results"] if not r["cc_enabled"]]
    assert on and off, "congestion bench must report both arms"
    for r in off:
        assert "cc" not in r
    for r in on:
        cc = r["cc"]
        for key in ("fecn_marked", "fecn_depth_marks",
                    "fecn_stall_marks", "becn_sent", "becn_received",
                    "cct_timer_fires", "throttled_pkts",
                    "throttled_ns_total", "max_node_throttled_ns",
                    "peak_cct_index", "cct_index_hist"):
            assert key in cc, f"cc block missing {key}"
        assert cc["fecn_marked"] == \
            cc["fecn_depth_marks"] + cc["fecn_stall_marks"]
        assert cc["becn_received"] <= cc["becn_sent"] <= \
            cc["fecn_marked"]
        assert sum(cc["cct_index_hist"]) == cc["becn_received"]
        assert r["victim_packets"] > 0 and r["hot_packets"] > 0
        assert r["link_summary"]["total_fecn_marks"] == \
            cc["fecn_marked"]
    # mlid-bench-v3: the interval sampler is on by default in this
    # bench, so every run carries a timeline; CC-on runs must show
    # BECN traffic in the sampled windows, CC-off runs none.  (The
    # timeline spans the whole run including warm-up, so its BECN
    # sum can exceed the measure-window aggregate by a few.)
    for r in on + off:
        assert r["timeline_enabled"] is True
        tl = r["timeline"]
        assert tl["base_interval_ns"] > 0
        cols = tl["columns"]
        rows = [dict(zip(cols, s)) for s in tl["samples"]]
        assert rows, r["series"]
        becn = sum(row["becn"] for row in rows)
        if r["cc_enabled"]:
            assert becn >= r["cc"]["becn_received"] > 0, r["series"]
        else:
            assert becn == 0, r["series"]
    print(f"CC telemetry schema OK: {len(on)} cc-on points")


def check_scale():
    """BENCH_scale.json: FT(16,4) bytes/endport within 10% of the checked-in
    baseline, plus the live profile block."""
    BASELINE = 198.0   # bytes/endport, FT(16,4), quick run
    with open("BENCH_scale.json") as f:
        doc = json.load(f)
    assert doc["schema"] == "mlid-bench-v8", doc.get("schema")
    series = {r["series"]: r for r in doc["results"]}
    assert {"partial-mlid-lmc2", "slid"} <= series.keys(), series.keys()
    for name, r in series.items():
        assert r["packets_delivered"] > 0, name
        assert r["packets_dropped"] == 0, name
        per_port = r["manifest"]["bytes_per_endport"]
        print(f"{name}: {per_port:.1f} bytes/endport")
        assert per_port < BASELINE * 1.10, (
            f"{name}: {per_port:.1f} bytes/endport exceeds the "
            f"{BASELINE:.0f} baseline by more than 10%")
        # mlid-bench-v8: this bench always profiles, so the manifest
        # profile block must be live and self-consistent.
        prof = r["manifest"]["profile"]
        assert prof["enabled"] is True, name
        assert prof["queue_pops"] > 0, name
        assert 0.0 <= prof["barrier_wait_fraction"] < 1.0, name
        assert len(prof["shard_phases"]) == prof["shards"], name


def check_metrics():
    """metrics.jsonl: every line is standalone JSON of a documented kind;
    ablation_scale summaries inline the profile."""
    kinds = []
    with open("metrics.jsonl") as f:
        for line in f:
            doc = json.loads(line)   # every line is standalone JSON
            kinds.append(doc["kind"])
            assert doc["wall_ns"] >= 0, doc
            if doc["kind"] == "window":
                assert doc["window_ns"] > 0, doc
            elif doc["kind"] == "summary":
                assert doc["events_processed"] > 0, doc
                # ablation_scale profiles, so summaries inline the
                # phase breakdown.
                assert doc["profile"]["shards"] >= 1, doc
    assert kinds, "metrics stream is empty"
    assert "summary" in kinds, kinds
    print(f"metrics stream OK: {len(kinds)} lines, "
          f"{kinds.count('window')} windows, "
          f"{kinds.count('summary')} summaries")


def check_scenarios():
    """BENCH_scenarios.json: v7 scenario provenance, burst manifests and the
    per-tenant fairness books."""
    with open("BENCH_scenarios.json") as f:
        doc = json.load(f)
    assert doc["schema"] == "mlid-bench-v8", doc.get("schema")
    results = {r["series"]: r for r in doc["results"]}
    for series in ("incast/cc-off", "incast/cc-on",
                   "multi-tenant/shared-vl", "multi-tenant/isolated-vl",
                   "churn/flapping-uplinks"):
        r = results[series]
        assert r["manifest"]["scenario"] == series.split("/")[0], series
        assert r["packets_delivered"] > 0, series
    # Closed-loop arms land in the top-level burst list; v7 burst
    # entries carry manifests.
    bursts = {r["series"]: r for r in doc["bursts"]}
    for series in ("mice-elephants/SLID", "mice-elephants/MLID"):
        r = bursts[series]
        assert r["manifest"]["scenario"] == "mice-elephants", series
        assert r["messages"] > 0, series
    # Multi-tenant arms: the tenant books must close over the window.
    for series in ("multi-tenant/shared-vl", "multi-tenant/isolated-vl"):
        r = results[series]
        assert r["tenant_count"] == 4, series
        assert len(r["tenants"]) == 4, series
        assert 0.0 < r["tenant_jain_fairness_index"] <= 1.0, series
        assert sum(t["delivered_pkts"] for t in r["tenants"]) == \
            r["packets_measured"], series
    print(f"scenario BENCH schema OK: {len(results)} series")


def check_trace():
    """trace.json: a loadable chrome trace carrying all four track families."""
    with open("trace.json") as f:
        doc = json.load(f)
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert events, "empty trace"
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i", "C"} <= phases, phases
    names = {e.get("name", "") for e in events}
    for want in ("link-fail", "trap", "sweep-done",
                 "throughput", "occupancy", "congestion",
                 "source-queue"):
        assert any(want in n for n in names), want
    print(f"chrome trace OK: {len(events)} events")


def check_micro():
    """BENCH_micro_components.json: one smoke series per queue kind; warns
    (never fails) when the ladder is slower."""
    with open("BENCH_micro_components.json") as f:
        doc = json.load(f)
    assert doc["schema"] == "mlid-bench-v8", doc.get("schema")
    rates = {}
    for entry in doc["results"]:
        series = entry["series"]
        if not series.startswith("smoke/"):
            continue
        m = entry["manifest"]
        assert m["events_processed"] > 0, series
        assert m["events_scheduled"] >= m["events_processed"], series
        kind = m["event_queue"]["kind"]
        assert series.endswith(kind), (series, kind)
        if kind == "ladder":
            assert m["event_queue"]["buckets"] > 0
        rates[kind] = m["events_per_sec"]
    assert set(rates) == {"heap", "ladder"}, rates
    print(f"heap   {rates['heap']:>12.0f} events/s")
    print(f"ladder {rates['ladder']:>12.0f} events/s "
          f"({rates['ladder'] / rates['heap']:.2f}x)")
    if rates["ladder"] < rates["heap"]:
        # Warn-only: shared CI runners are too noisy to gate on.
        print("::warning title=perf-smoke::ladder queue slower than "
              f"heap ({rates['ladder']:.0f} vs {rates['heap']:.0f} "
              "events/s)")


def check_sweep_speedup():
    """ablation_scaling --quick on every core must beat the single-threaded run
    by 10%."""
    cores = os.cpu_count() or 1
    if cores < 2:
        print("single-core runner; skipping the speedup assertion")
        raise SystemExit(0)
    def wall(threads):
        t0 = time.monotonic()
        subprocess.run(["./bench/ablation_scaling", "--quick",
                        f"--threads={threads}"], check=True,
                       stdout=subprocess.DEVNULL)
        return time.monotonic() - t0
    wall(1)  # warm the page cache so neither arm pays it
    st = min(wall(1) for _ in range(2))
    mt = min(wall(cores) for _ in range(2))
    print(f"1 thread: {st:.2f}s | {cores} threads: {mt:.2f}s "
          f"| speedup {st / mt:.2f}x")
    assert mt < st * 0.9, \
        f"multithreaded sweep not faster: {mt:.2f}s vs {st:.2f}s"


CHECKS = {
    "adaptive": check_adaptive,
    "telemetry": check_telemetry,
    "scale": check_scale,
    "metrics": check_metrics,
    "scenarios": check_scenarios,
    "trace": check_trace,
    "micro": check_micro,
    "sweep-speedup": check_sweep_speedup,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    CHECKS[parser.parse_args().check]()


if __name__ == "__main__":
    main()
