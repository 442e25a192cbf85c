import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from topoasm import fixtures
from topoasm.cli import build_parser, export_geometry, main
from topoasm.engine import synthesize

from conftest import JOURNAL_LINE, scripted_config

ROOT = Path(__file__).resolve().parents[1]


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


def test_asap_at_high_failure_rate_exits_zero(workdir, capsys):
    """A round of well over a thousand boxes is sized without overflow."""
    assert run_cli(workdir, "--scheduler", "asap", "--p-fail", "0.99") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_alap_at_high_failure_rate_exits_zero(workdir, capsys):
    """Rounds of over 768 A boxes fit in the alap wall."""
    assert run_cli(workdir, "--scheduler", "alap", "--p-fail", "0.99") == 0
    assert capsys.readouterr().out == "volume 3201408 plumbing pieces, 18 scheduling rounds\n"


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


def test_byte_order_mark_is_ignored(workdir, capsys):
    """A circuit and an outcome script that start with a UTF-8 byte-order
    mark give the same stdout and export bytes as the plain files."""
    for name in ("toffoli.icm", "outcomes.txt"):
        plain = workdir / name
        (workdir / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())

    def run(prefix):
        paths = [workdir / f"{prefix}out.{kind}" for kind in ("geometry", "stats", "journal")]
        code = main([
            "--circuit", str(workdir / f"{prefix}toffoli.icm"), "--condition", "temporal:15",
            "--outcomes", str(workdir / f"{prefix}outcomes.txt"),
            "--export-geometry", str(paths[0]),
            "--export-stats", str(paths[1]),
            "--journal", str(paths[2]),
        ])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        return captured.out, [p.read_bytes() for p in paths]

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
    assert capsys.readouterr().out == "116640 6\n"


@pytest.mark.parametrize(
    "circuit, extra, digests",
    [
        pytest.param(
            "toffoli.icm", ["--condition", "temporal:15", "--outcomes", "outcomes.txt"],
            (
                "3eda286d5492c599c62255ac6261749c2d8d2e646b4e4411ae1af5a16bc4d5ee",
                "d823cd0f823e3a3e05ec121eae60d2181621f15a6808587eb22888f074823e7d",
                "15081e5d18266598de4915b9b2cd277dc3d8184d8f2c3adacfbbb7cf1c3aec39",
            ),
            id="readme-scripted",
        ),
        pytest.param(
            "toffoli.icm", ["--seed", "1", "--segment-order", "ceb"],
            (
                "b61945a177b88f4eb7c031bcd35ac69eabbb96b5f58ac4042e7ff3885de5d8f9",
                "72d4cb2a93ae99145ae42658eb02f26bb2a542d2d06ceb54e1838054b69d8941",
                "d93d8603ffe35dc96627c2eb34f26f0ca73e57d350e68f95dc0a7f0bf072edc6",
            ),
            id="seed1-ceb",
        ),
        pytest.param(
            "toffoli_unopt.icm", ["--scheduler", "alap", "--seed", "2", "--no-recycle"],
            (
                "ec18bda58f39164f84a7d7b2967f11e5fb3d4b99356d3a3eb1806ebb3f484be6",
                "7c3dc9155ee9918dfb6809ce45230a3094c2e03a71763a4bf3fb0c11cd136232",
                "52684175c89127abceecb0ca32dcac0bf96eeb5d640bd361695ccd84c494e73d",
            ),
            id="alap-unopt-no-recycle",
        ),
        pytest.param(
            "toffoli.icm", ["--scheduler", "asap", "--seed", "0"],
            (
                "9676a690527e73d5e9815896cc4045dd6ba193ec7d2233b2eaa96018b1219515",
                "cdb79703fff843c0ef14742ce138d9d04cb42a25b8ab0e816df88654bb3d7649",
                "1c624ff4f628d11a0c06d8a1375f86cb91343de80be49c78a9a5d4a44feda8df",
            ),
            id="asap",
        ),
    ],
)
def test_cli_determinism_byte_identical(workdir, circuit, extra, digests):
    """Reruns write the same bytes, and those bytes match the sha256 digests
    of the geometry, stats and journal exports recorded for these runs; a
    change that alters an output must say why and update its digests."""
    shutil.copy(fixtures.fixture_path(circuit), workdir / circuit)
    extra = [str(workdir / a) if a.endswith(".txt") else a for a in extra]

    def run(tag):
        paths = [workdir / f"{tag}.{kind}" for kind in ("geometry", "stats", "journal")]
        code = main([
            "--circuit", str(workdir / circuit), *extra,
            "--export-geometry", str(paths[0]),
            "--export-stats", str(paths[1]),
            "--journal", str(paths[2]),
        ])
        assert code == 0
        return [p.read_bytes() for p in paths]

    first = run("a")
    assert first == run("b")
    assert tuple(hashlib.sha256(b).hexdigest() for b in first) == digests


@pytest.mark.parametrize("order", ["cbe", "ceb"])
@pytest.mark.parametrize("scheduler", ["spiral", "alap", "asap"])
def test_exports_do_not_depend_on_the_hash_seed(tmp_path, scheduler, order):
    """Python salts ``str`` hashes per process, so iterating a set or dict
    of strings could reorder a run between processes, which no in-process
    rerun shows.  The CLI on the Toffoli in two subprocesses, with
    ``PYTHONHASHSEED`` 0 and 1, writes the same geometry, stats and
    journal bytes and prints the same line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        paths = [tmp_path / f"{seed}.{kind}" for kind in ("geometry", "stats", "journal")]
        proc = subprocess.run(
            [sys.executable, "-m", "topoasm", "--circuit", str(fixtures.fixture_path("toffoli.icm")),
             "--scheduler", scheduler, "--segment-order", order,
             "--export-geometry", str(paths[0]), "--export-stats", str(paths[1]),
             "--journal", str(paths[2])],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, timeout=120, check=True,
        )
        runs.append([p.read_bytes() for p in paths] + [proc.stdout])
    assert runs[0] == runs[1]
    assert runs[0][0] and runs[0][2]


MATRIX_DIGESTS = [  # (circuit, scheduler, seed, segment order, sha256)
    ("toffoli.icm", "spiral", 0, "cbe", "6ed9ea066a8aae36be9f9a63a9b6ad534f30d168c4735c94893c5b7681739fe2"),
    ("toffoli.icm", "spiral", 0, "ceb", "791bae5849d6e61d67cf7402c394bfa1ae7f6257ee486fcc9c5b2e7ffab76d4f"),
    ("toffoli.icm", "spiral", 1, "cbe", "e5347d3c0c9d0e9772e5dd63a23f409132438fab6c4d305ef17802552a482dce"),
    ("toffoli.icm", "spiral", 1, "ceb", "f280581c8640fb84ea3d1bad7d3eae810346a357a24b30afca3cd065749318da"),
    ("toffoli.icm", "spiral", 2, "cbe", "8fa10cc068b4dcbbde17350e911be59ee6a147a05d72cefc5204f5248ac3508f"),
    ("toffoli.icm", "spiral", 2, "ceb", "cc0d8480ed10d0c40bf26b286f99d2a6e41f79fa544ba01e317426a1335fdc67"),
    ("toffoli.icm", "alap", 0, "cbe", "eb31dcb7b2d906915af6d687e6c5cd16ad176d189fcddc1e263253245c46c4c8"),
    ("toffoli.icm", "alap", 0, "ceb", "173652488aad2c2f4770207cb80196d799137fd701fff7147a699502dd0abd02"),
    ("toffoli.icm", "alap", 1, "cbe", "76ff8c388fd82cf0dfd6f741b334956937383ff4e7d9e48216a285b3e52ffc8f"),
    ("toffoli.icm", "alap", 1, "ceb", "f806684bdc7aaef3d7528d0c2ebd8b3c389b9921ad1e0be543c51ab8b391c460"),
    ("toffoli.icm", "alap", 2, "cbe", "204b7353f3a21269e663bf7ad783b92e3de167a979b4d6442624bc506f706b2a"),
    ("toffoli.icm", "alap", 2, "ceb", "c5da4dec0195f2ba21118a254dd8574464185fd70dd4ac553ea262c8ad7f6d42"),
    ("toffoli.icm", "asap", 0, "cbe", "ccf1565acf8cd7ef7242c2335a9dadba8a531132e98360979b941f9769f69f49"),
    ("toffoli.icm", "asap", 0, "ceb", "0154767dd6d20445649decc947faa692dff34151c5a6e98f060314e497930ec2"),
    ("toffoli.icm", "asap", 1, "cbe", "708fda98ddc8e4e88b24f11bf5e3e4144630876d7af8208aad527217e3db0aed"),
    ("toffoli.icm", "asap", 1, "ceb", "0306fdf33a277dc12d08b7df81cdab015fdc5b2257677db520f95b7f7eb26564"),
    ("toffoli.icm", "asap", 2, "cbe", "8302cc8a508c67e5adaf6d747fc2a23317efa7c713c00392f499e529ca295ffe"),
    ("toffoli.icm", "asap", 2, "ceb", "e980767c9a23fbad7a764ef5c9201331651ec175e0c2a1309878930fce20c0f6"),
    ("toffoli_unopt.icm", "spiral", 0, "cbe", "6ed9ea066a8aae36be9f9a63a9b6ad534f30d168c4735c94893c5b7681739fe2"),
    ("toffoli_unopt.icm", "spiral", 0, "ceb", "791bae5849d6e61d67cf7402c394bfa1ae7f6257ee486fcc9c5b2e7ffab76d4f"),
    ("toffoli_unopt.icm", "spiral", 1, "cbe", "e5347d3c0c9d0e9772e5dd63a23f409132438fab6c4d305ef17802552a482dce"),
    ("toffoli_unopt.icm", "spiral", 1, "ceb", "f280581c8640fb84ea3d1bad7d3eae810346a357a24b30afca3cd065749318da"),
    ("toffoli_unopt.icm", "spiral", 2, "cbe", "8fa10cc068b4dcbbde17350e911be59ee6a147a05d72cefc5204f5248ac3508f"),
    ("toffoli_unopt.icm", "spiral", 2, "ceb", "cc0d8480ed10d0c40bf26b286f99d2a6e41f79fa544ba01e317426a1335fdc67"),
    ("toffoli_unopt.icm", "alap", 0, "cbe", "eb31dcb7b2d906915af6d687e6c5cd16ad176d189fcddc1e263253245c46c4c8"),
    ("toffoli_unopt.icm", "alap", 0, "ceb", "173652488aad2c2f4770207cb80196d799137fd701fff7147a699502dd0abd02"),
    ("toffoli_unopt.icm", "alap", 1, "cbe", "76ff8c388fd82cf0dfd6f741b334956937383ff4e7d9e48216a285b3e52ffc8f"),
    ("toffoli_unopt.icm", "alap", 1, "ceb", "f806684bdc7aaef3d7528d0c2ebd8b3c389b9921ad1e0be543c51ab8b391c460"),
    ("toffoli_unopt.icm", "alap", 2, "cbe", "204b7353f3a21269e663bf7ad783b92e3de167a979b4d6442624bc506f706b2a"),
    ("toffoli_unopt.icm", "alap", 2, "ceb", "c5da4dec0195f2ba21118a254dd8574464185fd70dd4ac553ea262c8ad7f6d42"),
    ("toffoli_unopt.icm", "asap", 0, "cbe", "ccf1565acf8cd7ef7242c2335a9dadba8a531132e98360979b941f9769f69f49"),
    ("toffoli_unopt.icm", "asap", 0, "ceb", "0154767dd6d20445649decc947faa692dff34151c5a6e98f060314e497930ec2"),
    ("toffoli_unopt.icm", "asap", 1, "cbe", "708fda98ddc8e4e88b24f11bf5e3e4144630876d7af8208aad527217e3db0aed"),
    ("toffoli_unopt.icm", "asap", 1, "ceb", "0306fdf33a277dc12d08b7df81cdab015fdc5b2257677db520f95b7f7eb26564"),
    ("toffoli_unopt.icm", "asap", 2, "cbe", "8302cc8a508c67e5adaf6d747fc2a23317efa7c713c00392f499e529ca295ffe"),
    ("toffoli_unopt.icm", "asap", 2, "ceb", "e980767c9a23fbad7a764ef5c9201331651ec175e0c2a1309878930fce20c0f6"),
]


@pytest.mark.parametrize(
    "circuit, extra, digest",
    [
        (c, ["--scheduler", s, "--seed", str(seed), "--segment-order", o], d)
        for c, s, seed, o, d in MATRIX_DIGESTS
    ]
    + [
        (
            "toffoli.icm", ["--condition", "temporal:15", "--outcomes", "outcomes.txt"],
            "af7a26ae96be67cc8286e7cb1dc87ca0a84f499650f405aa174c59a22da7f284",
        )
    ],
    ids=[f"{c.split('.')[0]}-{s}-{seed}-{o}" for c, s, seed, o, _ in MATRIX_DIGESTS] + ["readme-scripted"],
)
def test_release_matrix_digests(workdir, capsys, circuit, extra, digest):
    """The release matrix: both fixtures under every scheduler, seeds 0-2 and
    both segment orders, plus the README scripted run.  Each row pins one
    sha256 over the geometry, stats and journal exports and stdout; a change
    that alters an output must say why and update the row."""
    shutil.copy(fixtures.fixture_path(circuit), workdir / circuit)
    extra = [str(workdir / a) if a.endswith(".txt") else a for a in extra]
    paths = [workdir / f"run.{kind}" for kind in ("geometry", "stats", "journal")]
    code = main([
        "--circuit", str(workdir / circuit), *extra,
        "--export-geometry", str(paths[0]),
        "--export-stats", str(paths[1]),
        "--journal", str(paths[2]),
    ])
    assert code == 0
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def test_compare_mode_prints_medians(workdir, capsys):
    code = run_cli(workdir, "--compare", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert "spiral" in out and "alap" in out and "asap" in out
    assert "smaller" in out


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch, toffoli):
    """topobench's tracer looks library names up by string, so deleting or
    renaming one it wraps lands in ``Tracer.missing`` instead of failing.
    Its hooks also read what the wrapped calls return (``len`` of
    ``plan_segment``'s result), so a traced Toffoli synthesis must run,
    keep the untraced volume and count the searched segments and cells."""
    import topoasm.cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "topobench"))
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


@pytest.mark.parametrize("order", ["cbe", "ceb"])
@pytest.mark.parametrize("scheduler", ["spiral", "alap", "asap"])
@pytest.mark.parametrize("circuit", ["toffoli.icm", "toffoli_unopt.icm", "parallel-x2"])
def test_cli_exports_pass_the_independent_checker(tmp_path, monkeypatch, capsys,
                                                  circuit, scheduler, order):
    """Every exporter's output, through the CLI, passes ``topobench/check.py``,
    which reads the ICM source and the exports alone: both fixtures and two
    Toffolis side by side with recycling on (``parallel-x2``), under each
    scheduler and segment order."""
    monkeypatch.syspath_prepend(str(ROOT / "topobench"))
    import check
    import compose

    if circuit == "parallel-x2":
        source = compose.compose(fixtures.toffoli_text(), 2, sequential=False)
    else:
        source = fixtures.fixture_path(circuit).read_text(encoding="utf-8")
    path = tmp_path / "circuit.icm"
    path.write_text(source)
    paths = [tmp_path / f"run.{kind}" for kind in ("geometry", "stats", "journal")]
    code = main([
        "--circuit", str(path), "--scheduler", scheduler, "--seed", "0",
        "--segment-order", order,
        "--export-geometry", str(paths[0]),
        "--export-stats", str(paths[1]),
        "--journal", str(paths[2]),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert check.check_request(source, *(p.read_text() for p in paths), stdout=out) == []


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
def test_long_chain_digests(tmp_path, monkeypatch, capsys, scheduler, order, digest):
    """A 16-Toffoli sequential chain (``topobench/compose.py``, recycling on)
    through the CLI with every exporter: long rail runs, long guides and
    many spiral rounds, which the single-Toffoli rows barely reach.  One
    sha256 over the geometry, stats and journal exports and stdout."""
    monkeypatch.syspath_prepend(str(ROOT / "topobench"))
    import compose

    circuit = tmp_path / "chain.icm"
    circuit.write_text(compose.compose(fixtures.toffoli_text(), 16, sequential=True))
    paths = [tmp_path / f"run.{kind}" for kind in ("geometry", "stats", "journal")]
    code = main([
        "--circuit", str(circuit), "--scheduler", scheduler, "--seed", "0",
        "--segment-order", order,
        "--export-geometry", str(paths[0]),
        "--export-stats", str(paths[1]),
        "--journal", str(paths[2]),
    ])
    assert code == 0
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest
