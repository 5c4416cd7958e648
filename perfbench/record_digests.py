"""Record the reference sha256 of each traced unit's output for a seed range.

Usage: python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [WORKLOAD ...]
Merges the digests into perfbench/reference_digests.json.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PATH = HERE / "reference_digests.json"


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    names = argv[2:] or list(workloads.WORKLOADS)
    table = json.loads(PATH.read_text()) if PATH.is_file() else {}
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in range(first, last + 1):
            pool = workload.make_inputs(seed)
            for i in range(workload.traced_units):
                out = workload.run_unit(pool[i % len(pool)])
                table.setdefault(name, {})[out.key] = out.digest
                print(name, out.key, out.digest, flush=True)
            PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
