"""The three workloads, their requests, and the known-failure probes.

Every workload is built from the bundled Toffoli fixtures, so nothing
is downloaded.  A request is one ``topoasm.synthesize`` call or one
in-process ``topoasm.cli.main`` run with all three exporters; each
request kind draws its synthesis seed from a fixed space of
``SEED_SPACE`` seeds in an order derived from the workload seed, so
``baseline.py`` can check and digest every request a run can make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import compose

SEED_SPACE = 16
CHAIN_COPIES = 14
WIDE_COPIES = 4
README_SEED7 = {"volume": 116640, "rounds": 6, "A": 7, "Y": 14}
README_SCRIPTED = {"stats_rows": 21, "rounds": 5, "volume": 116640, "A": 7, "Y": 14}
TOFFOLI_INPUTS = {"A": 7, "Y": 14}


@dataclass(frozen=True)
class Request:
    kind: str  # request kind, as reported in the per-kind rows
    circuit: str  # key into Workbench.sources
    scheduler: str
    recycle: bool = True
    via_cli: bool = False
    scripted: bool = False  # README reference: temporal:15 plus the outcomes file
    expect: dict = field(default_factory=dict)


WORKLOADS = {
    # The paper's own circuit under all three schedulers, plus the README's
    # scripted reference through the CLI: BlockedView construction dominates
    # and index churn is small, so index fixes should leave it unchanged.
    "toffoli-sweep": [
        Request("toffoli-spiral", "toffoli", "spiral", expect=TOFFOLI_INPUTS),
        Request("toffoli-alap", "toffoli", "alap", expect=TOFFOLI_INPUTS),
        Request("toffoli-asap", "toffoli", "asap", expect=TOFFOLI_INPUTS),
        Request("unopt-spiral", "toffoli_unopt", "spiral", recycle=False),
        Request("unopt-alap", "toffoli_unopt", "alap", recycle=False),
        Request("unopt-asap", "toffoli_unopt", "asap", recycle=False),
        Request("cli-scripted", "toffoli", "spiral", via_cli=True, scripted=True,
                expect=README_SCRIPTED),
    ],
    # Toffolis in sequence: guides spanning all of t make index insert and
    # remove grow with circuit length (ROADMAP 2(b)).
    "toffoli-chain": [
        Request("chain-spiral", "chain", "spiral"),
        Request("chain-alap-cli", "chain", "alap", via_cli=True),
    ],
    # Toffolis side by side without recycling: wide search boxes, large
    # rounds and many pool discards.
    "toffoli-wide": [
        Request("wide-spiral", "wide", "spiral", recycle=False),
        Request("wide-alap-cli", "wide", "alap", recycle=False, via_cli=True),
    ],
}

WORKLOAD_CIRCUITS = {
    "toffoli-sweep": ("toffoli", "toffoli_unopt"),
    "toffoli-chain": ("toffoli", "chain"),
    "toffoli-wide": ("toffoli", "wide"),
}


def seed_order(workload: str, seed: int) -> list[int]:
    """The synthesis seeds a run walks through, one per cycle."""
    return random.Random(f"{workload}:{seed}").sample(range(SEED_SPACE), SEED_SPACE)


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    synth_s: float
    cli_s: float | None
    inputs: int
    volume: int
    rounds: int
    stdout: str | None  # the CLI's stdout, for CLI requests
    files: dict  # geometry, stats and journal paths, read by ``Workbench.check``
    errors: list


class Workbench:
    """Loaded circuits and the request runner for one workload."""

    def __init__(self, workload: str, out_dir: Path):
        import topoasm
        import topoasm.cli
        from topoasm import fixtures
        from topoasm.icm import format_icm

        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.fixture_dir = fixtures.fixture_path("toffoli.icm").parent
        base = fixtures.toffoli_text()
        made = {
            "toffoli": base,
            "toffoli_unopt": fixtures.toffoli_unopt_text(),
            "chain": compose.compose(base, CHAIN_COPIES, sequential=True),
            "wide": compose.compose(base, WIDE_COPIES, sequential=False),
        }
        self.sources = {k: made[k] for k in WORKLOAD_CIRCUITS[workload]}
        self.circuits = {}
        self.paths = {}
        self.max_rounds = {}
        for key, text in self.sources.items():
            circuit = topoasm.parse_icm(text)
            if key in ("chain", "wide"):
                again = topoasm.parse_icm(format_icm(circuit))
                if again.ops != circuit.ops or again.wire_count != circuit.wire_count:
                    raise RuntimeError(f"{key}: format_icm/parse_icm round trip changed the circuit")
                path = self.out / f"{key}.icm"
                path.write_text(text, encoding="utf-8")
                self.paths[key] = path
            else:
                self.paths[key] = self.fixture_dir / f"{key}.icm"
            self.circuits[key] = circuit
            # alap fires at least one round per demand event, and more when a
            # round falls short; the default of 64 is too small past 3 Toffolis.
            self.max_rounds[key] = max(64, 2 * compose.magic_events(text) + 16)
        self.topoasm = topoasm
        # Captured before any tracer is installed, so the exports of
        # non-CLI requests stay out of the traced ``cli.export`` span.
        self.exporters = {"geometry": topoasm.cli.export_geometry,
                          "stats": topoasm.cli.export_stats,
                          "journal": topoasm.cli.export_journal}

    def config(self, req: Request, seed: int):
        t = self.topoasm
        return t.SynthesisConfig(
            policy=t.SchedulerPolicy(kind=req.scheduler),
            seed=seed,
            max_rounds=self.max_rounds[req.circuit],
            optimize_wires=req.recycle,
        )

    def _timed(self, req: Request, seed: int, files: dict):
        """Send one request; (assembly, synth seconds, cli seconds, stdout)."""
        cli = self.topoasm.cli
        if not req.via_cli:
            circuit = self.circuits[req.circuit]
            config = self.config(req, seed)
            t0 = time.perf_counter()
            assembly = self.topoasm.engine.synthesize(circuit, config)
            synth_s = time.perf_counter() - t0
            for key, export in self.exporters.items():
                export(assembly, files[key])
            return assembly, synth_s, None, None

        argv = ["--circuit", str(self.paths[req.circuit]), "--scheduler", req.scheduler,
                "--max-rounds", str(self.max_rounds[req.circuit])]
        if req.scripted:
            argv += ["--condition", "temporal:15",
                     "--outcomes", str(self.fixture_dir / "toffoli_outcomes.txt")]
        else:
            argv += ["--seed", str(seed)]
        if not req.recycle:
            argv.append("--no-recycle")
        argv += ["--export-geometry", str(files["geometry"]),
                 "--export-stats", str(files["stats"]), "--journal", str(files["journal"])]
        # Times the synthesize call the CLI makes; this one extra frame per CLI
        # run is the only patch an untraced run applies.
        inner = cli.synthesize
        box = {}

        def timed_synthesize(circuit, config):
            t0 = time.perf_counter()
            box["assembly"] = inner(circuit, config)
            box["s"] = time.perf_counter() - t0
            return box["assembly"]

        buf = io.StringIO()
        cli.synthesize = timed_synthesize
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            cli_s = time.perf_counter() - t0
        finally:
            cli.synthesize = inner
        if code != 0:
            raise RuntimeError(f"cli exit code {code}")
        return box["assembly"], box["s"], cli_s, buf.getvalue()

    def run(self, req: Request, seed: int, name: str = "request") -> Outcome:
        """One timed request; its outputs stay in ``out/<name>.*`` until
        ``check`` reads them, so a run can check after reading its peak RSS."""
        files = {k: self.out / f"{name}.{k}" for k in ("geometry", "stats", "journal")}
        for path in files.values():
            path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            assembly, synth_s, cli_s, stdout = self._timed(req, seed, files)
        except Exception as exc:  # a failed request is counted, not fatal
            msg = f"{type(exc).__name__}: {exc}".splitlines()[0]
            return Outcome(time.perf_counter() - t0, None, 0, 0, 0, None, files, [msg])
        return Outcome(synth_s, cli_s, len(assembly.deliveries), assembly.volume,
                       len(assembly.layers), stdout, files, [])

    def check(self, req: Request, out: Outcome) -> tuple[list, str]:
        """(errors, digest) of a request's outputs; deletes its output files."""
        if out.errors:
            return out.errors, ""
        blobs = {k: p.read_bytes() for k, p in out.files.items()}
        for path in out.files.values():
            path.unlink()
        text = {k: b.decode("utf-8") for k, b in blobs.items()}
        errors = check.check_request(
            self.sources[req.circuit], text["geometry"], text["stats"], text["journal"],
            volume=out.volume, rounds=out.rounds, stdout=out.stdout, expect=req.expect,
        )
        return errors, digest(blobs["geometry"], blobs["stats"], blobs["journal"])

    def readme_seed7(self) -> list[str]:
        """The README's quick-start run: seed 7 spiral gives 116640 and 6 rounds."""
        req = Request("readme-seed7", "toffoli", "spiral", via_cli=True, expect=README_SEED7)
        return self.check(req, self.run(req, 7))[0]

    def probes(self) -> list[tuple[str, str]]:
        """Known defects, run untimed: (probe name, first error line or 'passed')."""
        t = self.topoasm
        base = self.sources["toffoli"]
        cases = [
            # ROADMAP 3: recycling folds parallel copies into CNOT template clashes.
            ("recycled-parallel-x2", compose.compose(base, 2, sequential=False), "spiral", True, 0),
            # asap on parallel copies: a box-to-rail segment finds no path.
            ("asap-parallel-x3", compose.compose(base, 3, sequential=False), "asap", False, 0),
        ]
        out = []
        for name, text, kind, recycle, seed in cases:
            config = t.SynthesisConfig(policy=t.SchedulerPolicy(kind=kind), seed=seed,
                                       optimize_wires=recycle)
            try:
                t.synthesize(t.parse_icm(text), config)
                out.append((name, "passed"))
            except t.engine.EngineError as exc:
                out.append((name, str(exc).splitlines()[0]))
        return out
