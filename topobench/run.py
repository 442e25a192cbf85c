"""topoasm benchmark: one workload, one closed-loop client, one process.

    python3 topobench/run.py --workload toffoli-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run imports ``topoasm`` from the
checkout's ``src/`` (never from an installed copy), sets the workload up
several times, then sends requests one after another in whole cycles
through the workload's request kinds until ``--seconds`` have passed
(at least two cycles untraced, one traced).  Every request's outputs go
through ``check.py`` after the timed loop, once the peak RSS is read, so
the checker's own memory never sets it.  Then it runs the README's seed-7
reference and the known-failure probes, untimed.

Host-speed correction: on a shared virtual machine the host's speed can
swing by up to 2x within seconds, and process CPU time swings with it.
Between timed calls, never inside them, the run times a fixed piece of
pure-Python reference work; every timed call is scaled by
``REF_NOMINAL_S`` over the median of the reference times taken just
before and just after it.  The reported seconds are therefore seconds
on a host where the reference work takes ``REF_NOMINAL_S``; the raw wall
seconds are printed next to them.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` every request is run twice, untraced and then traced
(``tracer.py``), and the last line holds the per-layer metrics and the
tracing overhead.  The rows printed before it are the report.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_CYCLES = 2
REF_REPEATS = 2
REF_NOMINAL_S = 0.025


def reference_work() -> int:
    """Fixed host-speed probe; must never change, or corrected times shift."""
    cells = set()
    for t in range(40):
        for x in range(40):
            for y in range(20):
                cells.add((t, x, y))
    heap = []
    for i, cell in enumerate(cells):
        if i % 7 == 0:
            heapq.heappush(heap, (cell[0] + cell[1], cell))
    while heap:
        heapq.heappop(heap)
    return len(cells)


class HostSpeed:
    """Reference timings taken between timed calls, and the correction they give."""

    def __init__(self):
        self.gaps: list[tuple[float, list[float]]] = []  # (start, reference seconds)

    def gap(self) -> None:
        """Collect garbage, then time the reference work ``REF_REPEATS`` times."""
        gc.collect()
        start = time.perf_counter()
        refs = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            reference_work()
            refs.append(time.perf_counter() - t0)
        self.gaps.append((start, refs))

    def factor(self, start: float, end: float) -> float:
        """``REF_NOMINAL_S`` over the median reference time of the gaps just
        before and just after a call."""
        before = [rs for t, rs in self.gaps if t <= start][-1]
        after = next(rs for t, rs in self.gaps if t >= end)
        return REF_NOMINAL_S / statistics.median(before + after)


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest sample.  Below 21 samples no order statistic at or above the
    median has ten beyond it, and the median is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), "p50"
    return xs[n - 11], f"p{100 * (n - 11) / (n - 1):.0f}"


def import_topoasm():
    """Fresh import of the package from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "topoasm" or m.startswith("topoasm.")]:
        del sys.modules[name]
    import topoasm
    import topoasm.cli

    if Path(topoasm.__file__).resolve().parent != (SRC / "topoasm").resolve():
        raise SystemExit(f"topoasm imported from {topoasm.__file__}, not from {SRC}")
    return topoasm


def setup(workload: str, host: HostSpeed):
    """Import and build the workload ``SETUP_REPEATS`` times; keep the last.
    Returns the workbench and (start, end) of each set-up."""
    import workloads

    spans = []
    host.gap()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_topoasm()
        bench = workloads.Workbench(workload, OUT)
        spans.append((t0, time.perf_counter()))
        host.gap()
    return bench, spans


def row(name: str, value, unit: str = "", note: str = "") -> None:
    print(f"{name:28s} {value:>14} {unit:6s} {note}".rstrip())


def measure(bench, requests, order, seconds: float, host: HostSpeed, tracer=None):
    """The closed loop: whole cycles of requests until ``seconds`` have passed,
    and at least ``MIN_CYCLES`` of them when untraced, so every kind has two
    samples.

    Returns one dict per timed request, the (request, outcome) pairs still
    to be checked, and, when tracing, one (request, per-layer snapshot,
    traced raw s, untraced twin raw s) per twin.
    """
    samples, pending, traced = [], [], []
    deadline = time.perf_counter() + seconds
    cycle = 0
    min_cycles = 1 if tracer else MIN_CYCLES  # a traced run needs one twin per kind
    while cycle < min_cycles or time.perf_counter() < deadline:
        seed = order[cycle % len(order)]
        for req in requests:
            for with_trace in (False, True) if tracer else (False,):
                if with_trace:
                    tracer.install(bench.topoasm)
                t0 = time.perf_counter()
                try:
                    out = bench.run(req, seed, f"request-{len(samples)}")
                finally:
                    if with_trace:
                        tracer.uninstall()
                t1 = time.perf_counter()
                samples.append({
                    "kind": req.kind, "seed": seed, "traced": with_trace,
                    "span": (t0, t1), "synth_raw": out.synth_s,
                    "cli_raw": out.cli_s, "inputs": out.inputs, "volume": out.volume,
                })
                pending.append((req, out))
                host.gap()
                if with_trace:
                    traced.append((req, tracer.snapshot(), out.synth_s,
                                   samples[-2]["synth_raw"]))
        cycle += 1
    for s in samples:
        f = host.factor(*s["span"])
        s["synth"] = s["synth_raw"] * f
        s["cli"] = s["cli_raw"] * f if s["cli_raw"] is not None else None
    return samples, pending, traced


def end_to_end(samples, requests, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of the untraced requests; prints the per-kind rows."""
    untraced = [s for s in samples if not s["traced"]]
    ok = [s for s in untraced if not s["errors"]]
    metrics = {"setup_s": (setup_s, "s")}
    if ok:
        synth_med, raw_med, vol_med = {}, {}, {}
        for k in [r.kind for r in requests if any(s["kind"] == r.kind for s in ok)]:
            ks = [s for s in ok if s["kind"] == k]
            synth_med[k] = statistics.median(s["synth"] for s in ks)
            raw_med[k] = statistics.median(s["synth_raw"] for s in ks)
            vol_med[k] = statistics.median(s["volume"] for s in ks)
            row(f"synth_s_p50[{k}]", f"{synth_med[k]:.4f}", "s",
                f"raw {raw_med[k]:.4f} s, n={len(ks)}, volume {vol_med[k]:.0f}")
        row("synth_s_p50 raw", f"{gmean(raw_med.values()):.4f}", "s")
        tail_s, tail_p = tail([s["synth"] for s in ok])
        row("synth_s_tail", f"{tail_s:.4f}", "s", f"{tail_p} of n={len(ok)}")
        metrics.update({
            "synth_s_p50": (gmean(synth_med.values()), "s"),
            "synth_s_tail": (tail_s, "s"),
            "inputs_per_s": (sum(s["inputs"] for s in ok) / sum(s["synth"] for s in ok), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "volume_gmean": (gmean(vol_med.values()), "pieces"),
        })
        clis = [s for s in ok if s["cli"] is not None]
        if clis:
            metrics["cli_s_p50"] = (statistics.median(s["cli"] for s in clis), "s")
            row("cli_s_p50 raw", f"{statistics.median(s['cli_raw'] for s in clis):.4f}", "s",
                f"n={len(clis)}")
    metrics["ok_ratio"] = (len(ok) / len(untraced), "ratio")
    return metrics


def outputs_changed(workload: str, samples) -> tuple[int, int]:
    """(requests whose digest differs from baseline.json, requests compared)."""
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    compared = changed = 0
    for s in samples:
        want = baseline.get(f"{workload}/{s['kind']}/{s['seed']}")
        if want is not None and s["digest"]:
            compared += 1
            changed += want != s["digest"]
    return changed, compared


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "topoasm" / "__init__.py").is_file():
        print(f"no topoasm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    host = HostSpeed()
    bench, setup_spans = setup(args.workload, host)
    requests = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    samples, pending, traced = measure(
        bench, requests, workloads.seed_order(args.workload, args.seed), args.seconds, host,
        tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for s, (req, out) in zip(samples, pending):
        s["errors"], s["digest"] = bench.check(req, out)
    readme_errors = bench.readme_seed7()
    probes = bench.probes()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"samples-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(
        {"gaps": host.gaps, "samples": samples}, indent=1))

    failed = sum(1 for s in samples if s["errors"])
    print(f"topobench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} requests={len(samples)}")
    for s in samples:
        for e in s["errors"][:5]:
            print(f"FAILED {s['kind']} seed {s['seed']}: {e}")
    for e in readme_errors:
        print(f"FAILED readme seed-7 reference: {e}")
    missing = sorted(set(tracer.missing)) if tracer else []
    for m in missing:
        print(f"FAILED trace: {m} not found, so its layer cannot be timed")
    for name, first in probes:
        print(f"probe {name}: {first}")
    probe_failed = sum(1 for _, first in probes if first != "passed")
    row("probe.failed", probe_failed, "count")
    changed, compared = outputs_changed(args.workload, samples)
    row("outputs_changed", changed, "count", f"of {compared} requests with a baseline digest")
    setup_raw = [end - start for start, end in setup_spans]
    row("setup_s raw", f"{statistics.median(setup_raw):.4f}", "s", f"median of {SETUP_REPEATS}")
    setup_s = statistics.median(r * host.factor(*sp) for r, sp in zip(setup_raw, setup_spans))
    metrics = end_to_end(samples, requests, setup_s, peak_rss_mb)
    if tracer:
        metrics = layer_metrics(traced, probe_failed, args)
    for name, (value, unit) in metrics.items():
        row(name, f"{value:.6g}", unit)
    print(json.dumps({
        "correct": failed == 0 and not readme_errors and not missing
        and len(metrics) == expected_metric_count(args.trace),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def expected_metric_count(trace: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return len(spec["per_layer" if trace else "end_to_end"])


SECONDS = {
    "route.blocked_view_s": "route.blocked_view", "route.astar_s": "route.astar",
    "route.commit_s": "route.commit", "route.taskset_s": "route.taskset",
    "spatial.insert_s": "spatial.insert", "spatial.remove_s": "spatial.remove",
    "spatial.hits_s": "spatial.hits", "geom.emit_s": "geom.emit",
    "sched.size_s": "sched.size", "sched.place_s": "sched.place", "pool.s": "pool",
    "icm.recycle_s": "icm.recycle", "engine.self_s": "engine.synthesize",
    "engine.journal_s": "engine.journal",
}
COUNTS = {
    "route.segments": "route.astar", "route.blocked_checks": "route.blocked_checks",
    "route.path_cells": "route.path_cells", "route.toggles": "route.toggles",
    "spatial.inserts": "spatial.insert", "spatial.removes": "spatial.remove",
    "spatial.hits": "spatial.hits", "spatial.peak_entries": "spatial.peak_entries",
    "spatial.bucket_touches": "spatial.bucket_touches", "geom.emit_calls": "geom.emit",
    "geom.claims": "geom.claims", "sched.rounds": "sched.rounds", "sched.boxes": "sched.boxes",
    "sched.probes": "sched.probes", "pool.reserved": "pool.reserved",
    "pool.discards": "pool.discards", "pool.peak_rails": "pool.peak_rails",
    "icm.wires_out": "icm.wires_out", "engine.journal_lines": "engine.journal_lines",
}


def layer_metrics(traced, probe_failed: int, args) -> dict:
    """Per-synthesis means over the traced requests, plus shares and overhead."""
    n = len(traced)
    n_cli = sum(1 for req, _, _, _ in traced if req.via_cli)
    self_s, count = {}, {}
    total = 0.0
    for _, snap, _, _ in traced:
        total += snap["synth_total_s"]
        for k, v in snap["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in snap["count"].items():
            count[k] = count.get(k, 0) + v
    out = {}
    for name, key in SECONDS.items():
        out[name] = (self_s.get(key, 0.0) / n, "s")
    for name, key in COUNTS.items():
        out[name] = (count.get(key, 0) / n, "count")
    out["sched.boxes_per_probe"] = (
        count.get("sched.boxes", 0) / max(1, count.get("sched.probes", 0)), "ratio")
    out["pool.discard_ratio"] = (
        count.get("pool.discards", 0) / max(1, count.get("pool.offered", 0)), "ratio")
    out["cli.export_s"] = (self_s.get("cli.export", 0.0) / max(1, n_cli), "s")
    out["cli.export_bytes"] = (count.get("cli.export_bytes", 0) / max(1, n_cli), "count")
    out["route.blocked_view_share"] = (self_s.get("route.blocked_view", 0.0) / total, "ratio")
    out["spatial.churn_share"] = (
        (self_s.get("spatial.insert", 0.0) + self_s.get("spatial.remove", 0.0)) / total, "ratio")
    traced_s = sum(t for _, _, t, _ in traced) / n
    untraced_s = sum(u for _, _, _, u in traced) / n
    out["synth.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["probe.failed"] = (probe_failed, "count")
    row("synthesis traced / untraced", f"{traced_s:.4f}", "s",
        f"untraced twin {untraced_s:.4f} s, n={n}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
        [{"request": i, "kind": req.kind, **snap} for i, (req, snap, _, _) in enumerate(traced)],
        indent=1))
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
