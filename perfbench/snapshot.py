"""Rewrite the reference snapshot that every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/snapshot.py [workload ...]

The snapshot is the program's own output at the default seed ("seed
output"), not ground truth. Rewrite it only in a change that alters output
values on purpose, and say in that change which cells moved and why.
"""

import json
import pathlib
import sys

import workloads

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference"


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        cells = wl.cells(wl.run(wl.build(workloads.DEFAULT_SEED)))
        path = REFERENCE / f"{name}.json"
        path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
