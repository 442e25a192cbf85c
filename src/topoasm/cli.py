"""Command-line front end: synthesis runs, exporters, baseline comparison.

Exit codes: 0 success, 1 synthesis or I/O failure (journal written when
available), 2 usage or circuit parse errors.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from .engine import Assembly, SynthesisConfig, SynthesisFailure, read_outcome_script, synthesize
from .icm import ICMError, parse_icm
from .sched import SchedulerPolicy

GEOMETRY_HEADER = "topoasm-geometry 1"


def export_geometry(assembly: Assembly, path) -> None:
    """Write the geometry document; byte-stable for a fixed assembly."""
    g = assembly.geometry
    lines = [GEOMETRY_HEADER, "units plumbing-pieces"]
    bbox = assembly.bbox
    lines.append(
        "bbox {} {} {} {} {} {}".format(
            bbox.lo.t, bbox.lo.x, bbox.lo.y, bbox.hi.t, bbox.hi.x, bbox.hi.y
        )
    )
    lines.append(f"defects {len(g.defects)}")
    for poly in g.defects:
        coords = " ".join(f"{v.t} {v.x} {v.y}" for v in poly.vertices)
        lines.append(f"d {poly.kind} {poly.role} {len(poly.vertices)} {coords}")
    lines.append(f"boxes {len(g.boxes)}")
    for box in g.boxes:
        f = box.footprint
        lines.append(
            "b {} {} {} {} {} {} {} {} {} {} {}".format(
                box.kind, box.box_id,
                f.lo.t, f.lo.x, f.lo.y, f.hi.t, f.hi.x, f.hi.y,
                box.port.t, box.port.x, box.port.y,
            )
        )
    lines.append(f"pins {len(g.pins)}")
    for key, pin in g.pins:
        lines.append(f"p {key} {pin.t} {pin.x} {pin.y}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_stats(assembly: Assembly, path) -> None:
    """Comma-separated trace table plus a trailing total-volume row."""
    lines = ["step,nr_a,nr_y,a_pool,y_pool,sched_round"]
    for r in assembly.records:
        lines.append(f"{r.step},{r.nr_a},{r.nr_y},{r.a_pool},{r.y_pool},{r.sched_round}")
    lines.append(f"volume,{assembly.volume},,,,")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_journal(assembly: Assembly, path) -> None:
    Path(path).write_text(assembly.journal.text(), encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topoasm",
        description="Synthesize an ICM circuit into a topological assembly.",
    )
    p.add_argument("--circuit", required=True, help="path to the ICM source file")
    p.add_argument("--scheduler", choices=("spiral", "asap", "alap"), default="spiral")
    p.add_argument("--p-fail", type=float, default=0.5, help="distillation failure probability")
    p.add_argument("--confidence", type=float, default=0.999,
                   help="per-round probability that enough boxes succeed")
    p.add_argument("--pool-cap", type=int, default=10, help="max connections per state type")
    p.add_argument("--seed", type=int, default=0, help="outcome generator seed")
    p.add_argument("--outcomes", help="scripted outcomes: one 0/1 bitmap line per round")
    p.add_argument("--condition", default="after-round",
                   help="spiral round condition, ignored by alap and asap: "
                        "after-round | temporal:<period> | pool:<threshold>")
    p.add_argument("--segment-order", choices=("cbe", "ceb"), default="cbe",
                   help="compute order of the three segment classes")
    p.add_argument("--no-recycle", action="store_true", help="skip wire recycling")
    p.add_argument("--strict", action="store_true",
                   help="spiral only, ignored by alap and asap: fail instead of "
                        "scheduling when states run out")
    p.add_argument("--max-rounds", type=int, help="round bound (default: from the circuit)")
    p.add_argument("--export-geometry", metavar="PATH")
    p.add_argument("--export-stats", metavar="PATH")
    p.add_argument("--journal", metavar="PATH")
    p.add_argument("--compare", type=int, metavar="N",
                   help="run all three schedulers over N seeds and report volumes")
    return p


def parse_condition(text: str) -> tuple:
    if text == "after-round":
        return ("after-round",)
    kind, _, value = text.partition(":")
    # ASCII decimals only; a negative value parses so that its range check reports it
    if kind in ("temporal", "pool") and value.isascii() and value.removeprefix("-").isdigit():
        return (kind, int(value))
    raise ValueError(f"bad condition {text!r}")


def config_from_args(args, scheduler=None, seed=None) -> SynthesisConfig:
    policy = SchedulerPolicy(
        kind=scheduler or args.scheduler,
        condition=parse_condition(args.condition),
        p_fail=args.p_fail,
        confidence=args.confidence,
    )
    script = None
    if args.outcomes:
        script = read_outcome_script(Path(args.outcomes).read_text(encoding="utf-8-sig"))
    return SynthesisConfig(
        policy=policy,
        pool_cap=args.pool_cap,
        seed=args.seed if seed is None else seed,
        outcome_script=script,
        max_rounds=args.max_rounds,
        strict=args.strict,
        optimize_wires=not args.no_recycle,
        segment_order=args.segment_order,
    )


def run_compare(circuit, args, n_seeds: int) -> int:
    results = {}
    for kind in ("spiral", "alap", "asap"):
        volumes = []
        for seed in range(n_seeds):
            config = config_from_args(args, scheduler=kind, seed=seed)
            try:
                assembly = synthesize(circuit, config)
            except SynthesisFailure as exc:
                print(f"{kind} seed {seed}: FAILED ({exc})", file=sys.stderr)
                return 1
            volumes.append(assembly.volume)
        results[kind] = volumes
        med = statistics.median(volumes)
        print(f"{kind:7s} median volume {med:.0f} pieces (seeds 0..{n_seeds - 1})")
    spiral = statistics.median(results["spiral"])
    alap = statistics.median(results["alap"])
    if alap:
        change = 100.0 * (alap - spiral) / alap
        print(f"spiral vs alap: {abs(change):.1f}% {'smaller' if change >= 0 else 'larger'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        text = Path(args.circuit).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read circuit: {exc}", file=sys.stderr)
        return 2
    try:
        circuit = parse_icm(text)
    except ICMError as exc:
        print(f"circuit parse error: {exc}", file=sys.stderr)
        return 2
    try:
        config = config_from_args(args)
    except (OSError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2

    if args.compare is not None:
        if args.compare < 1:
            print("bad argument: --compare needs at least 1 seed", file=sys.stderr)
            return 2
        return run_compare(circuit, args, args.compare)

    try:
        assembly = synthesize(circuit, config)
    except SynthesisFailure as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        if args.journal:
            try:
                Path(args.journal).write_text(exc.journal.text(), encoding="utf-8")
            except OSError as io_exc:
                print(f"cannot write journal: {io_exc}", file=sys.stderr)
        return 1

    try:  # the journal first, so a failed export still leaves it
        if args.journal:
            export_journal(assembly, args.journal)
        if args.export_geometry:
            export_geometry(assembly, args.export_geometry)
        if args.export_stats:
            export_stats(assembly, args.export_stats)
    except OSError as exc:
        print(f"export failed: {exc}", file=sys.stderr)
        return 1

    rounds = len(assembly.layers)
    print(f"volume {assembly.volume} plumbing pieces, {rounds} scheduling rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
