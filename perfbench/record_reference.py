"""Record the output reference the benchmark's gates compare against.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark was defined against the commit that added it):

  python3 perfbench/record_reference.py

Each workload runs at seed 0 in a fresh interpreter and its summary (table
size, per-D counts, seed-0 hash, seed-independent hash and, for the
experiments, the per_disc keys) is written to perfbench/reference.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
from child import import_package
import workloads
work = workloads.Workload({name!r}, 0)
work.prepare(import_package({root!r}))
print(json.dumps(work.summarise(work.call())))
"""


def main():
    root = os.path.dirname(HERE)
    sys.path.insert(0, HERE)
    import workloads

    reference = {}
    for name in workloads.NAMES:
        code = SCRIPT.format(here=HERE, name=name, root=root)
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        )
        reference[name] = json.loads(out.stdout.strip().splitlines()[-1])
        print(name, reference[name]["size"], file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
