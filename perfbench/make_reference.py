#!/usr/bin/env python3
"""Record the reference outcome of every op the benchmark can run.

    python3 perfbench/make_reference.py

Runs each op of ``workloads.reference_ops()`` once, in-process, and writes
its exit code (or exception class), the SHA-256 of its stdout and the
number of ``Frac`` values it constructed to ``perfbench/reference.json``.
That count measures an op's work exactly and the same on every machine;
``workloads.sample_ops`` ranks candidate ops by it. Run it only at a commit whose outputs are
trusted: ``run.py`` treats any later difference as a failure.
"""

from __future__ import annotations

import json
import platform
import sys

from run import REFERENCE, SRC, commit_id, run_op
from tracing import CallCounter
from workloads import reference_ops


def write_reference(header: dict, ops: dict) -> None:
    """One op per line, so that a change to the reference diffs line by line."""
    lines = [f"{json.dumps(key)}: {json.dumps(ops[key])}" for key in sorted(ops)]
    REFERENCE.write_text(json.dumps(header)[:-1] + ', "ops": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    sys.path.insert(0, str(SRC))
    ops = {}
    with CallCounter() as counter:
        for op in reference_ops():
            before = counter.counts["rationals.frac_new"]
            outcome = run_op(op)
            ops[op.key] = [outcome.code, outcome.digest, counter.counts["rationals.frac_new"] - before]
    write_reference({"commit": commit_id(), "python": platform.python_version()}, ops)
    refused = sum(1 for code, _, _ in ops.values() if code != 0)
    print(f"{len(ops)} ops recorded, {refused} refused or raised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
