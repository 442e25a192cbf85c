"""Output check that trusts nothing the program computes about itself.

It reads only text: the ICM source the request was built from, the
exported geometry document, the stats CSV, the journal and the CLI's
stdout line.  It does not import ``topoasm``.  Every assertion is a fact
that holds on the program as specified by its README and its acceptance
criteria 9 and 10:

* no cell is rasterized twice from the exported polylines and boxes;
* the pins match the magic inputs counted from the source text, both in
  timestep and in basis (the basis is read back through the journal's
  ``assign`` and ``reserve`` lines);
* each pin is the last vertex of exactly one pool-to-pin polyline;
* the volume of the rasterized bounding box equals the volume in the
  geometry header, the stats, the journal, stdout and the return value.

``check_request`` returns a list of error strings; empty means passed.
"""

from __future__ import annotations

import re
from collections import Counter

_INIT = re.compile(r"^@(\d+)\s+init\s+(\d+)\s+([AY])\s*$")
_STDOUT = re.compile(r"^volume (\d+) plumbing pieces, (\d+) scheduling rounds$")


def magic_inputs(source: str) -> Counter:
    """Counter of (timestep, basis) over the A/Y initialisations in ``source``."""
    out = Counter()
    for raw in source.splitlines():
        m = _INIT.match(raw.split("#", 1)[0].strip())
        if m:
            out[(int(m.group(1)), m.group(3))] += 1
    return out


def parse_geometry(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != "topoasm-geometry 1":
        raise ValueError("not a geometry document")
    doc = {"bbox": None, "defects": [], "boxes": [], "pins": []}
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "bbox":
            doc["bbox"] = tuple(int(v) for v in parts[1:7])
        elif parts[0] == "d":
            n = int(parts[3])
            coords = [int(v) for v in parts[4:]]
            if len(coords) != 3 * n:
                raise ValueError(f"defect with {n} vertices has {len(coords)} coordinates")
            verts = [tuple(coords[3 * i:3 * i + 3]) for i in range(n)]
            doc["defects"].append((parts[1], parts[2], verts))
        elif parts[0] == "b":
            vals = [int(v) for v in parts[3:]]
            doc["boxes"].append((parts[1], parts[2], tuple(vals[0:3]), tuple(vals[3:6])))
        elif parts[0] == "p":
            doc["pins"].append((parts[1], tuple(int(v) for v in parts[2:5])))
    return doc


def _polyline_cells(verts) -> set:
    cells = {verts[0]}
    for a, b in zip(verts, verts[1:]):
        axes = [i for i in range(3) if a[i] != b[i]]
        if len(axes) != 1:
            raise ValueError(f"segment {a}->{b} is not axis-aligned")
        ax = axes[0]
        lo, hi = sorted((a[ax], b[ax]))
        for v in range(lo, hi + 1):
            c = list(a)
            c[ax] = v
            cells.add(tuple(c))
    return cells


def raster(doc: dict) -> tuple[int, tuple]:
    """(duplicate cell count, inclusive-exclusive bbox) of all solid cells."""
    seen = set()
    dupes = 0
    lo = [None, None, None]
    hi = [None, None, None]

    def add_cells(cells):
        nonlocal dupes
        dupes += len(seen & cells)
        seen.update(cells)

    for _, _, verts in doc["defects"]:
        add_cells(_polyline_cells(verts))
    for _, _, blo, bhi in doc["boxes"]:
        add_cells({
            (t, x, y)
            for t in range(blo[0], bhi[0])
            for x in range(blo[1], bhi[1])
            for y in range(blo[2], bhi[2])
        })
    for axis in range(3):
        vals = [c[axis] for c in seen]
        lo[axis], hi[axis] = min(vals), max(vals) + 1
    return dupes, (*lo, *hi)


def journal_facts(journal: str) -> dict:
    kinds = {}
    basis_of = {}
    volume = None
    rounds = 0
    for line in journal.splitlines():
        parts = line.split()
        if len(parts) < 2:
            continue
        op = parts[1]
        if op == "reserve":
            kinds[parts[2]] = parts[3]
        elif op == "assign":
            basis_of[parts[3]] = kinds.get(parts[2])
        elif op == "volume":
            volume = int(parts[2])
        elif op == "round":
            rounds += 1
    return {"basis_of": basis_of, "volume": volume, "rounds": rounds}


def stats_facts(stats: str) -> dict:
    lines = stats.splitlines()
    if not lines or lines[0] != "step,nr_a,nr_y,a_pool,y_pool,sched_round":
        raise ValueError("not a stats table")
    rows = [ln for ln in lines[1:] if not ln.startswith("volume,")]
    vol = [ln for ln in lines[1:] if ln.startswith("volume,")]
    if len(vol) != 1:
        raise ValueError(f"{len(vol)} volume rows in stats")
    return {"rows": len(rows), "volume": int(vol[0].split(",")[1])}


def check_request(source: str, geometry: str, stats: str, journal: str,
                  volume: int | None = None, rounds: int | None = None,
                  stdout: str | None = None, expect: dict | None = None) -> list[str]:
    """Check one request's outputs; ``expect`` adds README facts to assert."""
    errors = []
    try:
        doc = parse_geometry(geometry)
        st = stats_facts(stats)
        dupes, bbox = raster(doc)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    jf = journal_facts(journal)

    if dupes:
        errors.append(f"{dupes} cells rasterized twice")
    vol = (bbox[3] - bbox[0]) * (bbox[4] - bbox[1]) * (bbox[5] - bbox[2])
    if doc["bbox"] != bbox:
        errors.append(f"geometry header bbox {doc['bbox']} != rasterized {bbox}")
    reported = {"stats": st["volume"], "journal": jf["volume"]}
    if volume is not None:
        reported["returned"] = volume
    if rounds is not None and rounds != jf["rounds"]:
        errors.append(f"{rounds} rounds reported, {jf['rounds']} in the journal")
    if stdout is not None:
        m = _STDOUT.match(stdout.strip().splitlines()[-1] if stdout.strip() else "")
        if m is None:
            errors.append(f"unexpected stdout {stdout!r}")
        else:
            reported["stdout"] = int(m.group(1))
            if int(m.group(2)) != jf["rounds"]:
                errors.append(f"stdout says {m.group(2)} rounds, journal {jf['rounds']}")
    for where, v in reported.items():
        if v != vol:
            errors.append(f"{where} volume {v} != rasterized {vol}")

    want = magic_inputs(source)
    got = Counter()
    pin_at = {}
    for key, (t, x, y) in doc["pins"]:
        km = re.match(r"^w(\d+)@t(\d+)$", key)
        if km is None or int(km.group(2)) != t or y != 0:
            errors.append(f"pin {key} at {(t, x, y)} is not on its wire at its timestep")
        got[(t, jf["basis_of"].get(key))] += 1
        pin_at[(t, x, y)] = key
    if got != want:
        errors.append(f"pins {sorted(got.items())} != source inputs {sorted(want.items())}")
    ends = Counter(v[-1] for _, role, v in doc["defects"] if role == "connection_c")
    for cell, key in pin_at.items():
        if ends[cell] != 1:
            errors.append(f"pin {key} ends {ends[cell]} delivery paths")
    if sum(ends.values()) != len(pin_at):
        errors.append(f"{sum(ends.values())} delivery paths for {len(pin_at)} pins")

    for fact, value in (expect or {}).items():
        actual = {
            "volume": vol, "rounds": jf["rounds"], "stats_rows": st["rows"],
            "A": sum(n for (_, b), n in want.items() if b == "A"),
            "Y": sum(n for (_, b), n in want.items() if b == "Y"),
        }[fact]
        if actual != value:
            errors.append(f"README fact {fact}={value} but output has {actual}")
    return errors
