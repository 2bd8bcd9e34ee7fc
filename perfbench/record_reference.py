"""Record the reference traces that ``run.py`` checks every operation against.

Usage: ``python3 perfbench/record_reference.py``

Runs one cycle and the tail of every workload for each of the ``POOL``
input sets, and writes each trace's sha256 and a sample of its values
into ``perfbench/reference.json``. Run it only on the commit the
benchmark treats as its reference; a later commit passes if its traces
match within ``run.RTOL``, and reports ``trace_bitwise`` per trace.
"""

import json
import sys

from run import REFERENCE, Session
from workloads import POOL, WORKLOADS, plan


def main() -> int:
    reference = {"workloads": {}}
    for name in WORKLOADS:
        sets = {}
        for index in range(POOL):
            session = Session(plan(name, index), reference=None)
            if not session.unit():
                sys.exit(f"{name} input set {index}: an operation failed")
            sets[str(index)] = session.recorded
            print(f"{name} input set {index}: {len(session.recorded)} traces", file=sys.stderr)
        reference["workloads"][name] = sets
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
