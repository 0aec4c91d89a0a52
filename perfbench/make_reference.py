"""Record the reference row of every pool entry of a workload.

Each row is [fit log-likelihood (null without a fit), W2, p-value] of the
traced chain, or {"raised": <class>} for an entry whose chain raised; such
entries are left out of every run. The untraced op must give the same
p-value bit for bit, or the recording stops. Run from the repository root at the commit the
benchmark is checked against:

    PYTHONPATH=src python3 perfbench/make_reference.py --workload study-n100
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from spans import Tracer
from workloads import MASTER_SEED, WORKLOADS
from worker import git_commit

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    os.makedirs(".bench_build", exist_ok=True)
    wl.workdir = tempfile.mkdtemp(prefix="reference-", dir=".bench_build")
    rows = []
    try:
        for index in range(wl.pool_size):
            if wl.max_ops is not None:
                wl.write_input(index)
            rec = wl.traced(index, Tracer())
            twin = wl.run(index)
            if rec.status != "ok" and twin.status != "ok":
                print(f"{wl.name} entry {index} raised {rec.status}; left out of the pool")
                rows.append({"raised": rec.status})
                continue
            if rec.p_value != twin.p_value:
                print(f"{wl.name} entry {index}: traced p {rec.p_value!r} != {twin.p_value!r}", file=sys.stderr)
                return 1
            rows.append([rec.log_likelihood, rec.w2, rec.p_value])
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    out = os.path.join(HERE, "reference", f"{wl.name}.json")
    with open(out, "w", encoding="utf-8") as fh:
        head = {"workload": wl.name, "master_seed": MASTER_SEED, "commit": git_commit()}
        fh.write(json.dumps(head)[:-1] + ', "ops": [\n')
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
