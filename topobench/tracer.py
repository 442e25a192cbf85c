"""Outside-in layer tracing: spans around the public calls of each module.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces functions
and methods where the program looks them up (``engine`` imports its
collaborators by name, so those are patched in ``topoasm.engine``;
``route`` calls ``plan_segment`` and ``BlockedView`` as module globals)
and ``uninstall`` puts every original back.

A span's self time is its duration minus the time of the spans nested
in it.  ``World.claim`` and ``World.is_free`` get no span of their own:
their time counts toward the layer that called them, and their calls
are counted under that layer.  Spans are aggregated per request, keyed
by the request id, and kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, time spent in child spans]
        self.self_s: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.synth_total = 0.0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.count = Counter()
        self.synth_total = 0.0

    def innermost(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def span(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        """Time ``owner.attr`` as span ``name``; ``pre(args)`` and
        ``post(result, args, pre_value)`` run outside the timed interval."""
        stack = self.stack
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                enter = perf()
                before = pre(args) if pre is not None else None
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    tracer.self_s[name] += (t1 - t0) - frame[1]
                    tracer.count[name] += 1
                    if name == "engine.synthesize":
                        tracer.synth_total += t1 - t0
                if post is not None:
                    post(result, args, before)
                if stack:
                    stack[-1][1] += perf() - enter
                return result
            return wrapper

        self._patch(owner, attr, make)

    def counter(self, owner, attr: str, note) -> None:
        """Count calls of ``owner.attr`` without a span: ``note(args)`` runs first."""
        def make(orig):
            def wrapper(*args, **kwargs):
                note(args)
                return orig(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    # -- the program's layers ---------------------------------------------------

    def install(self, topoasm) -> None:
        engine, route, spatial, geom = topoasm.engine, topoasm.route, topoasm.spatial, topoasm.geom
        pool, cli = topoasm.pool, topoasm.cli
        c = self.count

        for owner in (engine, cli):
            self.span(owner, "synthesize", "engine.synthesize")
        self.span(cli, "main", "cli.main")

        def note_export(result, args, _):
            c["cli.export_bytes"] += os.path.getsize(args[1])

        for fn in ("export_geometry", "export_stats", "export_journal"):
            self.span(cli, fn, "cli.export", post=note_export)

        def note_lines(result, args, _):
            c["engine.journal_lines"] += 1

        self.span(engine.Journal, "log", "engine.journal", post=note_lines)

        def note_wires(result, args, _):
            c["icm.wires_out"] += result.wire_count

        self.span(engine, "recycle_wires", "icm.recycle", post=note_wires)
        self.span(engine, "required_round_size", "sched.size")

        def note_layer(result, args, _):
            c["sched.rounds"] += 1
            c["sched.boxes"] += len(result.boxes)

        for fn in ("place_spiral_layer", "place_alap_layer", "place_asap_stack"):
            self.span(engine, fn, "sched.place", post=note_layer)

        def note_free(args):
            if self.innermost() == "sched.place":
                c["sched.probes"] += 1

        def note_claim(args):
            if self.innermost() == "geom.emit":
                c["geom.claims"] += 1

        self.counter(route.World, "is_free", note_free)
        self.counter(route.World, "claim", note_claim)
        self.span(geom.GeometryBuilder, "emit_until", "geom.emit")

        self.span(engine, "compute_taskset", "route.taskset")

        def note_path(result, args, _):
            c["route.path_cells"] += len(result)

        self.span(route, "plan_segment", "route.astar", post=note_path)
        self.span(route.BlockedView, "__init__", "route.blocked_view")
        self.span(route, "_commit_path", "route.commit")

        def note_check(args):
            c["route.blocked_checks"] += 1

        self.counter(route.BlockedView, "is_blocked", note_check)

        def toggler(want_enabled):
            def note(args):
                registry, oid = args[0], args[1]
                if registry.get(oid).enabled != want_enabled:
                    c["route.toggles"] += 1
            return note

        self.counter(route.ObstacleRegistry, "enable", toggler(True))
        self.counter(route.ObstacleRegistry, "disable", toggler(False))

        def buckets(index, box) -> int:
            s = index.bucket_size
            return (
                ((box.hi.t - 1) // s - box.lo.t // s + 1)
                * ((box.hi.x - 1) // s - box.lo.x // s + 1)
                * ((box.hi.y - 1) // s - box.lo.y // s + 1)
            )

        def note_insert(result, args, _):
            index = args[0]
            c["spatial.bucket_touches"] += buckets(index, args[1].box)
            c["spatial.peak_entries"] = max(c["spatial.peak_entries"], len(index))

        def box_of_removed(args):
            return args[0].get(args[1]).box

        def note_remove(result, args, box):
            c["spatial.bucket_touches"] += buckets(args[0], box)

        def note_hits(result, args, _):
            c["spatial.bucket_touches"] += buckets(args[0], args[1])

        self.span(spatial.BoxIndex, "insert", "spatial.insert", post=note_insert)
        self.span(spatial.BoxIndex, "remove", "spatial.remove", pre=box_of_removed,
                  post=note_remove)
        self.span(spatial.BoxIndex, "hits", "spatial.hits", post=note_hits)

        def before_reserve(args):
            return sum(args[0].discarded.values())

        def note_reserve(result, args, discarded_before):
            p = args[0]
            c["pool.offered"] += len(args[1])
            c["pool.reserved"] += len(result)
            c["pool.discards"] += sum(p.discarded.values()) - discarded_before
            c["pool.peak_rails"] = max(c["pool.peak_rails"], len(p.rails))

        self.span(pool.ConnectionPool, "reserve_connections", "pool", pre=before_reserve,
                  post=note_reserve)
        for fn in ("assign_to_input", "mark_tobeavailable", "extension_targets",
                   "apply_extension", "sweep", "reserved_count", "counts", "rail_position"):
            self.span(pool.ConnectionPool, fn, "pool")

    def snapshot(self) -> dict:
        """This request's span self times and counts; then start afresh."""
        out = {"synth_total_s": self.synth_total,
               "self_s": dict(self.self_s), "count": dict(self.count)}
        self.reset()
        return out
