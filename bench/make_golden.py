#!/usr/bin/env python3
"""Write bench/golden/<workload>.json: the outputs of the current program for
every call seed in a workload's pool.

    python3 bench/make_golden.py --workload clip-large --pool 1024

Run this only on the commit whose outputs are the reference (the seed
commit of the benchmark); later commits are checked against these files.
Every pool call must succeed, or no file is written.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import workloads  # noqa: E402

POOL_START = 1000


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.all_workloads()))
    parser.add_argument("--pool", type=int, default=1024, help="number of call seeds")
    args = parser.parse_args()

    jghm = run.import_package()
    workload = workloads.all_workloads()[args.workload]
    work = run.OUT_ROOT / f"golden-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config))
    out_dir = work / "out"
    calls, meta = {}, None
    for seed in range(POOL_START, POOL_START + args.pool):
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = jghm.cli.main(workload.argv(config_path, seed, out_dir))
        if code != 0:
            sys.exit(f"call seed {seed} exited with code {code}")
        calls[str(seed)] = workload.record(seed, out_dir)
        if meta is None:
            meta = workload.csv_meta(out_dir)
    shutil.rmtree(work)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    golden = {"workload": args.workload, "source_commit": commit,
              "config": workload.config, "meta": meta, "calls": calls}
    path = workloads.GOLDEN_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({len(calls)} call seeds)")


if __name__ == "__main__":
    main()
