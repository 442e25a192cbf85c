import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from topoasm import fixtures
from topoasm.cli import build_parser, export_geometry, main
from topoasm.engine import synthesize

from conftest import JOURNAL_LINE, ROOT, scripted_config

SCHEDULERS = ("spiral", "alap", "asap")
ORDERS = ("cbe", "ceb")
EXPORTS = ("geometry", "stats", "journal")

# Expected outputs live in two records.  A run the benchmark also makes is
# recorded in ``topobench/baseline.json`` as ``workloads.digest`` of its
# export bytes, which ``topobench/baseline.py`` writes only for outputs that
# pass ``topobench/check.py``; the runs it does not make are pinned here
# (the Toffoli ``ceb`` rows and ``test_long_chain_digests``) as one sha256
# over the geometry, stats and journal exports and stdout.
BASELINE = json.loads((ROOT / "topobench" / "baseline.json").read_text(encoding="utf-8"))
CEB_DIGESTS = {  # Toffoli, --segment-order ceb: (scheduler, seed) -> sha256
    ("spiral", 0): "791bae5849d6e61d67cf7402c394bfa1ae7f6257ee486fcc9c5b2e7ffab76d4f",
    ("spiral", 1): "f280581c8640fb84ea3d1bad7d3eae810346a357a24b30afca3cd065749318da",
    ("spiral", 2): "cc0d8480ed10d0c40bf26b286f99d2a6e41f79fa544ba01e317426a1335fdc67",
    ("alap", 0): "173652488aad2c2f4770207cb80196d799137fd701fff7147a699502dd0abd02",
    ("alap", 1): "f806684bdc7aaef3d7528d0c2ebd8b3c389b9921ad1e0be543c51ab8b391c460",
    ("alap", 2): "c5da4dec0195f2ba21118a254dd8574464185fd70dd4ac553ea262c8ad7f6d42",
    ("asap", 0): "0154767dd6d20445649decc947faa692dff34151c5a6e98f060314e497930ec2",
    ("asap", 1): "0306fdf33a277dc12d08b7df81cdab015fdc5b2257677db520f95b7f7eb26564",
    ("asap", 2): "e980767c9a23fbad7a764ef5c9201331651ec175e0c2a1309878930fce20c0f6",
}


def toffoli_record(scheduler, seed, order):
    """Where the expected output of a Toffoli run (recycling on) is kept:
    a ``cbe`` run is the benchmark's ``toffoli-<scheduler>`` request."""
    if order == "cbe":
        return f"toffoli-sweep/toffoli-{scheduler}/{seed}"
    return CEB_DIGESTS[scheduler, seed]


def assert_recorded(bench, record, blobs, stdout):
    """``blobs`` (geometry, stats, journal bytes) and ``stdout`` are what
    ``record`` holds: a ``baseline.json`` key or a sha256 literal."""
    if "/" in record:
        assert bench.workloads.digest(*blobs) == BASELINE[record], record
    else:
        assert hashlib.sha256(b"".join(blobs) + stdout.encode()).hexdigest() == record


@pytest.fixture()
def workdir(tmp_path):
    shutil.copy(fixtures.fixture_path("toffoli.icm"), tmp_path / "toffoli.icm")
    shutil.copy(fixtures.fixture_path("toffoli_outcomes.txt"), tmp_path / "outcomes.txt")
    return tmp_path


def run_cli(workdir, *extra):
    argv = ["--circuit", str(workdir / "toffoli.icm")] + list(extra)
    return main(argv)


def checked_run(bench, capsys, circuit, *flags):
    """One CLI run on the file ``circuit`` with all three exporters, which
    write beside it: it must exit 0 with nothing on stderr, and its exports
    and stdout must pass ``topobench/check.py`` against the circuit's text.
    Returns the export bytes (geometry, stats, journal) and stdout."""
    paths = [circuit.with_suffix(f".{kind}") for kind in EXPORTS]
    code = main([
        "--circuit", str(circuit), *flags,
        "--export-geometry", str(paths[0]),
        "--export-stats", str(paths[1]),
        "--journal", str(paths[2]),
    ])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", captured.err
    blobs = [p.read_bytes() for p in paths]
    source = circuit.read_text(encoding="utf-8-sig")
    errors = bench.check.check_request(source, *(b.decode() for b in blobs), stdout=captured.out)
    assert errors == []
    return blobs, captured.out


def readme_output(command):
    """What the README's code block shows ``command`` printing."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n{command}\n", 1)[1].split("```", 1)[0]


def test_happy_path_exit_zero(workdir, capsys):
    code = run_cli(workdir, "--scheduler", "spiral", "--seed", "7")
    assert code == 0
    out = capsys.readouterr().out
    assert "volume" in out and "plumbing pieces" in out


def test_asap_at_high_failure_rate_exits_zero(workdir, capsys):
    """A round of well over a thousand boxes is sized without overflow."""
    assert run_cli(workdir, "--scheduler", "asap", "--p-fail", "0.99") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_alap_at_high_failure_rate_exits_zero(workdir, capsys):
    """Rounds of over 768 A boxes fit in the alap wall."""
    assert run_cli(workdir, "--scheduler", "alap", "--p-fail", "0.99") == 0
    assert capsys.readouterr().out == readme_output(
        "topoasm --circuit src/topoasm/fixtures/toffoli.icm --scheduler alap --p-fail 0.99")


def test_unknown_flag_exits_two(workdir, capsys):
    assert run_cli(workdir, "--does-not-exist") == 2


def test_missing_circuit_exits_two(tmp_path, capsys):
    assert main(["--circuit", str(tmp_path / "nope.icm")]) == 2


def test_bad_circuit_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.icm"
    bad.write_text("init 0 Q\n")
    assert main(["--circuit", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_bad_condition_exits_two(workdir, capsys):
    for text in ("sometimes", "temporal:15:2"):
        assert run_cli(workdir, "--condition", text) == 2
        assert capsys.readouterr().err == f"bad argument: bad condition {text!r}\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--p-fail", "1.5"],
        ["--confidence", "1"],
        ["--pool-cap", "0"],
        ["--outcomes", "missing.txt"],
        ["--condition", "temporal:0"],
        ["--condition", "temporal:-3"],
        ["--condition", "pool:11"],
        ["--condition", "pool:-1"],
        ["--condition", "temporal:1_0"],
        ["--condition", "temporal:+15"],
        ["--condition", "temporal: 15"],
        ["--condition", "pool:\u0663"],
        ["--condition", "temporal:15:2"],
        ["--max-rounds", "0"],
        ["--max-rounds", "-5"],
        ["--compare", "0"],
        ["--circuit", "latin1.icm"],
        ["--circuit", "underscore.icm"],
        ["--circuit", "plus.icm"],
        ["--circuit", "plus-timestep.icm"],
    ],
    ids=["p-fail", "confidence", "pool-cap", "missing-outcomes", "temporal-0",
         "temporal-negative", "pool-above-cap", "pool-negative", "temporal-underscore",
         "temporal-plus", "temporal-space", "pool-non-ascii-digit", "temporal-two-colons",
         "max-rounds-0",
         "max-rounds-negative", "compare-0", "circuit-not-utf8", "circuit-wire-underscore",
         "circuit-wire-plus", "circuit-timestep-plus"],
)
def test_bad_input_exits_two_with_one_line(workdir, capsys, extra):
    (workdir / "latin1.icm").write_bytes("@0 init 0 0  # caf\u00e9\n".encode("latin-1"))
    (workdir / "underscore.icm").write_text("init 1_0 0\nmeasure 10 X\n")
    (workdir / "plus.icm").write_text("init +0 0\nmeasure 0 X\n")
    (workdir / "plus-timestep.icm").write_text("@+3 init 0 0\n@4 measure 0 X\n")
    extra = [str(workdir / a) if a.endswith((".txt", ".icm")) else a for a in extra]
    assert run_cli(workdir, *extra) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize(
    "script, extra, message",
    [
        (None, ["--strict"], "insufficient distilled states in strict mode"),
        (
            "11111111000000 1111111000\n11110000000000 1111110000\n", [],
            "outcome script exhausted at round 3",
        ),
        ("0101\n", [], "outcome script round 1: need 24 bits, got '0101'"),
        (None, ["--pool-cap", "1"], "event at t=4 needs 2 A states, above the pool cap of 1"),
    ],
    ids=["strict", "outcomes-too-few-lines", "outcomes-wrong-length", "pool-cap"],
)
def test_synthesis_failure_exit_one_writes_journal(workdir, capsys, script, extra, message):
    """Every exit 1 writes the requested journal, each of its lines a step,
    an op and single-spaced fields; ``script`` replaces the bundled outcome
    script when given.  A pool-cap failure is found before the first step,
    and its journal is the one line naming it."""
    outcomes = workdir / "outcomes.txt"
    if script is not None:
        outcomes.write_text(script)
    journal = workdir / "fail.journal"
    code = run_cli(
        workdir, *extra, "--condition", "temporal:15",
        "--outcomes", str(outcomes), "--journal", str(journal),
    )
    assert code == 1
    assert capsys.readouterr().err == f"synthesis failed: {message}\n"
    lines = journal.read_text().splitlines()
    assert lines and all(JOURNAL_LINE.match(line) for line in lines), lines
    if "--pool-cap" in extra:
        assert lines == ["0 over-cap 4 A 2 1"]


@pytest.mark.parametrize(
    "extra, want",
    [
        (
            ["--export-geometry", "{missing}/g"],
            ["export failed: [Errno 2] No such file or directory: '{missing}/g'"],
        ),
        (
            ["--export-geometry", "{missing}/g", "--journal", "{journal}"],
            ["export failed: [Errno 2] No such file or directory: '{missing}/g'"],
        ),
        (
            ["--strict", "--condition", "temporal:15", "--outcomes", "{outcomes}",
             "--journal", "{missing}/j"],
            ["synthesis failed: insufficient distilled states in strict mode",
             "cannot write journal: [Errno 2] No such file or directory: '{missing}/j'"],
        ),
        (
            ["--compare", "1", "--max-rounds", "1"],
            ["spiral seed 0: FAILED (exceeded max_rounds=1: 1 rounds fired, "
             "6 A and 5 Y reserved at t=16)"],
        ),
    ],
    ids=["export-into-missing-dir", "export-into-missing-dir-with-journal",
         "strict-journal-into-missing-dir", "compare-max-rounds-1"],
)
def test_failure_exits_one_with_its_stderr_lines(workdir, capsys, extra, want):
    """An export that cannot be written, a failed run whose journal cannot
    be written, and a failed comparison exit 1 with exactly their lines
    on stderr, no traceback, and nothing on stdout.  A journal requested
    beside a failed export is still written whole, byte for byte the
    journal of the same run without that export."""
    paths = {
        "missing": workdir / "no-such-dir",
        "outcomes": workdir / "outcomes.txt",
        "journal": workdir / "run.journal",
    }
    assert run_cli(workdir, *(a.format(**paths) for a in extra)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line.format(**paths) for line in want]
    assert captured.out == ""
    if "{journal}" in extra:
        assert run_cli(workdir, "--journal", str(workdir / "ok.journal")) == 0
        assert paths["journal"].read_bytes() == (workdir / "ok.journal").read_bytes()


def test_scripted_run_exports(workdir, bench, capsys):
    blobs, _ = checked_run(bench, capsys, workdir / "toffoli.icm", "--condition", "temporal:15",
                           "--outcomes", str(workdir / "outcomes.txt"))
    lines = blobs[1].decode().splitlines()
    assert lines[0] == "step,nr_a,nr_y,a_pool,y_pool,sched_round"
    data = [ln for ln in lines[1:] if not ln.startswith("volume,")]
    assert len(data) == 21
    assert data[0] == "1,2,1,6,6,1"
    assert lines[-1].startswith("volume,")


def test_byte_order_mark_is_ignored(workdir, bench, capsys):
    """A circuit and an outcome script that start with a UTF-8 byte-order
    mark give the same stdout and export bytes as the plain files."""
    for name in ("toffoli.icm", "outcomes.txt"):
        plain = workdir / name
        (workdir / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())

    def run(prefix):
        return checked_run(bench, capsys, workdir / f"{prefix}toffoli.icm", "--condition",
                           "temporal:15", "--outcomes", str(workdir / f"{prefix}outcomes.txt"))

    assert run("bom-") == run("")


def test_geometry_roundtrip(toffoli, tmp_path):
    asm = synthesize(toffoli, scripted_config())
    path = tmp_path / "geom.txt"
    export_geometry(asm, path)
    export_geometry(asm, tmp_path / "geom2.txt")
    assert path.read_bytes() == (tmp_path / "geom2.txt").read_bytes()


def test_readme_flag_table_names_the_parser_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### CLI flags\n", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    documented = set()
    for row in table.splitlines()[2:]:  # past the header and rule rows
        documented.update(re.findall(r"--[a-z][a-z-]*", row.split("` |", 1)[0]))
    flags = {s for action in build_parser()._actions for s in action.option_strings}
    assert documented == flags - {"-h", "--help"}


def test_readme_library_snippet_prints_its_volume(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(snippet, {})
    quick = readme_output("topoasm --circuit src/topoasm/fixtures/toffoli.icm --scheduler spiral --seed 7")
    volume, rounds = re.fullmatch(r"volume (\d+) plumbing pieces, (\d+) scheduling rounds\n", quick).groups()
    assert capsys.readouterr().out == f"{volume} {rounds}\n"


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_exports_do_not_depend_on_the_hash_seed(tmp_path, bench, scheduler, order):
    """Python salts ``str`` hashes per process, so iterating a set or dict
    of strings could reorder a run between processes, which no in-process
    rerun shows.  The CLI on the Toffoli (seed 0) in two subprocesses, with
    ``PYTHONHASHSEED`` 0 and 1, writes the same geometry, stats and
    journal bytes and prints the same line, and both are the recorded
    output of that run."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        paths = [tmp_path / f"{seed}.{kind}" for kind in EXPORTS]
        proc = subprocess.run(
            [sys.executable, "-m", "topoasm", "--circuit", str(fixtures.fixture_path("toffoli.icm")),
             "--scheduler", scheduler, "--segment-order", order,
             "--export-geometry", str(paths[0]), "--export-stats", str(paths[1]),
             "--journal", str(paths[2])],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, timeout=120, check=True,
        )
        runs.append(([p.read_bytes() for p in paths], proc.stdout.decode()))
    assert runs[0] == runs[1]
    assert_recorded(bench, toffoli_record(scheduler, 0, order), *runs[0])


def cli_run_circuit(workdir, bench, circuit):
    """The file a CLI test row runs: a copy of the fixture ``circuit``, or
    two Toffolis side by side (``parallel-x2``) composed by the benchmark."""
    path = workdir / f"run-{circuit}"
    if circuit == "parallel-x2":
        path.write_text(bench.compose.compose(fixtures.toffoli_text(), 2, sequential=False))
    else:
        shutil.copy(fixtures.fixture_path(circuit), path)
    return path


def run_flags(workdir, flags):
    return [str(workdir / f) if f.endswith(".txt") else f for f in flags]


def seed_flags(scheduler, seed, order):
    return ["--scheduler", scheduler, "--seed", str(seed), "--segment-order", order]


@pytest.mark.parametrize(
    "circuit, flags, record",
    [
        pytest.param(circuit, seed_flags(kind, seed, order), toffoli_record(kind, seed, order),
                     id=f"{circuit.split('.')[0]}-{kind}-{seed}-{order}")
        for circuit in ("toffoli.icm", "toffoli_unopt.icm")
        for kind in SCHEDULERS for seed in range(3) for order in ORDERS
    ]
    + [
        pytest.param("toffoli.icm", ["--condition", "temporal:15", "--outcomes", "outcomes.txt"],
                     "toffoli-sweep/cli-scripted/0", id="readme-scripted"),
    ],
)
def test_release_matrix_digests(workdir, bench, capsys, circuit, flags, record):
    """The release matrix: both fixtures under every scheduler, seeds 0-2
    and both segment orders, plus the README scripted run.  Every run
    passes ``topobench/check.py``, an in-process rerun writes the same
    bytes, and the run writes what its record holds.  Recycling turns the
    unoptimized fixture into the Toffoli (``test_icm``), so its rows read
    the Toffoli's records.  A change that alters an output must say why
    and re-record it: ``python topobench/baseline.py`` for the benchmark's
    runs, ``CEB_DIGESTS`` for the rest."""
    path = cli_run_circuit(workdir, bench, circuit)
    flags = run_flags(workdir, flags)
    first = checked_run(bench, capsys, path, *flags)
    assert checked_run(bench, capsys, path, *flags) == first
    assert_recorded(bench, record, *first)


@pytest.mark.parametrize(
    "circuit, flags, record",
    [
        pytest.param("toffoli.icm", ["--condition", "temporal:15", "--outcomes", "outcomes.txt"],
                     "toffoli-sweep/cli-scripted/0", id="readme-scripted"),
        pytest.param("toffoli.icm", ["--seed", "1", "--segment-order", "ceb"],
                     toffoli_record("spiral", 1, "ceb"), id="seed1-ceb"),
        pytest.param("toffoli_unopt.icm", ["--scheduler", "alap", "--seed", "2", "--no-recycle"],
                     "toffoli-sweep/unopt-alap/2", id="alap-unopt-no-recycle"),
        pytest.param("toffoli.icm", ["--scheduler", "asap", "--seed", "0"],
                     toffoli_record("asap", 0, "cbe"), id="asap"),
    ],
)
def test_cli_determinism_byte_identical(workdir, bench, capsys, circuit, flags, record):
    """A rerun from another directory, on a copy of the circuit under
    another name with its exports beside it, writes the same bytes and
    prints the same line: no output depends on where the files live.  Both
    runs write what the run's record holds."""
    path = cli_run_circuit(workdir, bench, circuit)
    flags = run_flags(workdir, flags)
    elsewhere = workdir / "elsewhere" / "renamed.icm"
    elsewhere.parent.mkdir()
    shutil.copy(path, elsewhere)
    first = checked_run(bench, capsys, path, *flags)
    assert checked_run(bench, capsys, elsewhere, *flags) == first
    assert_recorded(bench, record, *first)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("circuit", ["toffoli.icm", "toffoli_unopt.icm", "parallel-x2"])
def test_cli_exports_pass_the_independent_checker(workdir, bench, capsys, circuit, scheduler, order):
    """Every exporter's output, through the CLI, passes ``topobench/check.py``,
    which reads the ICM source and the exports alone: both fixtures and two
    Toffolis side by side with recycling on (``parallel-x2``, which no
    record pins), under each scheduler and segment order, seed 0."""
    checked_run(bench, capsys, cli_run_circuit(workdir, bench, circuit),
                *seed_flags(scheduler, 0, order))


def test_compare_mode_prints_medians(workdir, capsys):
    code = run_cli(workdir, "--compare", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert "spiral" in out and "alap" in out and "asap" in out
    assert "smaller" in out


def test_compare_says_larger_when_spiral_is_larger(tmp_path, capsys):
    """On a one-input circuit the spiral's median volume is above alap's,
    and the summary says by how much instead of printing a negative
    reduction."""
    circuit = tmp_path / "one.icm"
    circuit.write_text("@0 init 0 A\n@1 measure 0 X\n")
    assert main(["--circuit", str(circuit), "--compare", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    spiral, alap = (int(line.split()[3]) for line in lines[:2])
    assert spiral > alap
    assert lines[-1] == f"spiral vs alap: {100 * (spiral - alap) / alap:.1f}% larger"


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch, toffoli):
    """topobench's tracer looks library names up by string, so deleting or
    renaming one it wraps lands in ``Tracer.missing`` instead of failing.
    Its hooks also read what the wrapped calls return (``len`` of
    ``plan_segment``'s result), so a traced Toffoli synthesis must run,
    keep the untraced volume and count the searched segments and cells."""
    import topoasm.cli

    monkeypatch.syspath_prepend(str(ROOT / "topobench"))
    import tracer

    untraced = synthesize(toffoli, scripted_config()).volume
    t = tracer.Tracer()
    try:
        t.install(topoasm)
        traced = topoasm.engine.synthesize(toffoli, scripted_config()).volume
    finally:
        t.uninstall()
    assert t.missing == []
    assert traced == untraced
    count = t.snapshot()["count"]
    # the benchmark reports these as route.path_cells and route.segments
    assert count["route.path_cells"] > 0 and count["route.astar"] > 0


@pytest.mark.parametrize(
    "scheduler, order, digest",
    [
        ("spiral", "cbe", "0b33c16a9161afd987ef94bb423e9bc35da886ed4ad562d9f957f5ed3439cf70"),
        ("alap", "ceb", "a859043b21716466f7126a3c69a3ecf068814d118f7da674ef187b500cab1fc0"),
        ("spiral", "ceb", "d4ffb4b77b838356c8fd90706d17d4d3290530784a952fdb40f88efd07e6ac24"),
        ("alap", "cbe", "b54f88e381439ee07559aae70dea1cea6392b574a2ead07807ac52c262546e24"),
    ],
    ids=["spiral-cbe", "alap-ceb", "spiral-ceb", "alap-cbe"],
)
def test_long_chain_digests(tmp_path, bench, capsys, scheduler, order, digest):
    """A 16-Toffoli sequential chain (``topobench/compose.py``, recycling on)
    through the CLI with every exporter: long rail runs, long guides and
    many spiral rounds, which the single-Toffoli rows barely reach.  Its
    exports pass ``topobench/check.py``, and one sha256 over them and
    stdout is pinned."""
    circuit = tmp_path / "chain.icm"
    circuit.write_text(bench.compose.compose(fixtures.toffoli_text(), 16, sequential=True))
    run = checked_run(bench, capsys, circuit, "--scheduler", scheduler, "--seed", "0",
                      "--segment-order", order)
    assert_recorded(bench, digest, *run)
