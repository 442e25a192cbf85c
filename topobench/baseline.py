"""Check every request a run can make and record its output digest.

    python3 topobench/baseline.py

For each workload, request kind and synthesis seed in the seed space,
runs the request once, checks it with ``check.py`` and records the
digest of its geometry, stats and journal bytes in
``topobench/baseline.json``.  ``run.py`` prints ``outputs_changed``
against that file.  A failed check stops the script without writing
the file, so a baseline only ever records outputs that passed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.import_topoasm()

    digests = {}
    for name in sorted(workloads.WORKLOADS):
        bench = workloads.Workbench(name, run.OUT)
        for req in workloads.WORKLOADS[name]:
            for seed in range(workloads.SEED_SPACE):
                out = bench.run(req, seed)
                errors, digest = bench.check(req, out)
                if errors:
                    print(f"{name}/{req.kind}/{seed} FAILED: {errors}", file=sys.stderr)
                    return 1
                digests[f"{name}/{req.kind}/{seed}"] = digest
                print(f"{name}/{req.kind}/{seed} ok {out.volume} {digest}", flush=True)
    (run.HERE / "baseline.json").write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
