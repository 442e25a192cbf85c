import shutil
from pathlib import Path

import pytest

from topoasm import fixtures
from topoasm.cli import export_geometry, load_geometry, main
from topoasm.engine import synthesize

from conftest import polyline_cells, scripted_config


@pytest.fixture()
def workdir(tmp_path):
    shutil.copy(fixtures.fixture_path("toffoli.icm"), tmp_path / "toffoli.icm")
    shutil.copy(fixtures.fixture_path("toffoli_outcomes.txt"), tmp_path / "outcomes.txt")
    return tmp_path


def run_cli(workdir, *extra):
    argv = ["--circuit", str(workdir / "toffoli.icm")] + list(extra)
    return main(argv)


def test_happy_path_exit_zero(workdir, capsys):
    code = run_cli(workdir, "--scheduler", "spiral", "--seed", "7")
    assert code == 0
    out = capsys.readouterr().out
    assert "volume" in out and "plumbing pieces" in out


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
    assert run_cli(workdir, "--condition", "sometimes") == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--p-fail", "1.5"],
        ["--confidence", "1"],
        ["--pool-cap", "0"],
        ["--pool-gap", "0"],
        ["--outcomes", "missing.txt"],
        ["--condition", "temporal:0"],
        ["--condition", "temporal:-3"],
        ["--condition", "pool:11"],
        ["--condition", "pool:-1"],
        ["--max-rounds", "0"],
        ["--max-rounds", "-5"],
        ["--compare", "0"],
        ["--circuit", "latin1.icm"],
    ],
    ids=["p-fail", "confidence", "pool-cap", "pool-gap", "missing-outcomes", "temporal-0",
         "temporal-negative", "pool-above-cap", "pool-negative", "max-rounds-0",
         "max-rounds-negative", "compare-0", "circuit-not-utf8"],
)
def test_bad_input_exits_two_with_one_line(workdir, capsys, extra):
    (workdir / "latin1.icm").write_bytes("@0 init 0 0  # caf\u00e9\n".encode("latin-1"))
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
    ],
    ids=["strict", "outcomes-too-few-lines", "outcomes-wrong-length"],
)
def test_synthesis_failure_exit_one_writes_journal(workdir, capsys, script, extra, message):
    """Every exit 1 writes the requested journal; ``script`` replaces the
    bundled outcome script when given."""
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
    assert journal.exists() and journal.read_text().strip()


def test_scripted_run_exports(workdir):
    stats = workdir / "stats.csv"
    geom = workdir / "geom.txt"
    journal = workdir / "run.journal"
    code = run_cli(
        workdir,
        "--condition", "temporal:15",
        "--outcomes", str(workdir / "outcomes.txt"),
        "--export-stats", str(stats),
        "--export-geometry", str(geom),
        "--journal", str(journal),
    )
    assert code == 0
    lines = stats.read_text().splitlines()
    assert lines[0] == "step,nr_a,nr_y,a_pool,y_pool,sched_round"
    data = [ln for ln in lines[1:] if not ln.startswith("volume,")]
    assert len(data) == 21
    assert data[0] == "1,2,1,6,6,1"
    assert lines[-1].startswith("volume,")
    assert journal.read_text().splitlines()


def test_geometry_roundtrip(toffoli, tmp_path):
    asm = synthesize(toffoli, scripted_config())
    path = tmp_path / "geom.txt"
    export_geometry(asm, path)
    export_geometry(asm, tmp_path / "geom2.txt")
    assert path.read_bytes() == (tmp_path / "geom2.txt").read_bytes()
    loaded = load_geometry(path)
    assert len(loaded.defects) == len(asm.geometry.defects)
    assert len(loaded.boxes) == len(asm.geometry.boxes)
    assert len(loaded.pins) == len(asm.geometry.pins)
    assert {c for d in loaded.defects for c in polyline_cells(d)} == {
        c for d in asm.geometry.defects for c in polyline_cells(d)
    }


def test_cli_determinism_byte_identical(workdir):
    def run(tag):
        paths = {
            "stats": workdir / f"s{tag}.csv",
            "geom": workdir / f"g{tag}.txt",
            "journal": workdir / f"j{tag}.log",
        }
        code = run_cli(
            workdir, "--seed", "42",
            "--export-stats", str(paths["stats"]),
            "--export-geometry", str(paths["geom"]),
            "--journal", str(paths["journal"]),
        )
        assert code == 0
        return {k: p.read_bytes() for k, p in paths.items()}

    assert run("a") == run("b")


def test_compare_mode_prints_medians(workdir, capsys):
    code = run_cli(workdir, "--compare", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert "spiral" in out and "alap" in out and "asap" in out
    assert "smaller" in out


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    """topobench's tracer looks library names up by string, so deleting or
    renaming one it wraps lands in ``Tracer.missing`` instead of failing."""
    import topoasm.cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "topobench"))
    import tracer

    t = tracer.Tracer()
    try:
        t.install(topoasm)
    finally:
        t.uninstall()
    assert t.missing == []
