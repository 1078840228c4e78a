#!/usr/bin/env python3
"""jghm-lab benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload clip-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload

One client on one thread issues back-to-back in-process calls to
`jghm.cli.main(argv)`, each with its own call seed, and checks every call's
output against golden values of the seed commit (workloads.py). With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced calls and prints the per-layer metrics (layertrace.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when every call
passed its check, 1 when one failed, 2 when the benchmark cannot run.

The package is imported from ./src of the checkout holding this file, never
from anywhere else.
"""

import os

# Pin BLAS before numpy is imported, here and in every child process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 9  # fresh processes timed for setup_s; the median is reported

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "call_p50_ms": "ms",
                    "call_p90_ms": "ms", "peak_rss_mb": "MB"}


def import_package():
    """Import jghm from ROOT/src; raise ImportError if it is not there."""
    src = ROOT / "src"
    if not (src / "jghm" / "__init__.py").is_file():
        raise ImportError(f"no jghm package under {src}")
    sys.path.insert(0, str(src))
    import jghm
    import jghm.cli

    if Path(jghm.__file__).resolve().parent != src / "jghm":
        raise ImportError(f"jghm imported from {jghm.__file__}, not from {src}")
    return jghm


def setup(workload_name, golden_dir):
    """Import the package and build the inputs; everything before the first call."""
    jghm = import_package()
    import workloads

    workload = workloads.all_workloads()[workload_name]
    workload.load_golden(golden_dir)
    if hasattr(workload, "prepare_reference"):
        workload.prepare_reference(jghm)
    work = OUT_ROOT / f"{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config))
    return jghm, workload, work, config_path


def time_setups(args):
    """Median wall time of SETUP_REPEATS fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--golden-dir", str(args.golden_dir), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Closed loop over the workload's call seeds; checks every call."""

    def __init__(self, jghm, workload, work, config_path, seeds):
        self.cli = jghm.cli
        self.workload = workload
        self.out_dir = work / "out"
        self.config_path = config_path
        self.seeds = seeds
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, recorder=None):
        """One checked CLI call; returns (seconds, passed, byte_identical, bytes)."""
        seed = self.seeds[self.next % len(self.seeds)]
        self.next += 1
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = self.workload.argv(self.config_path, seed, self.out_dir)
        if recorder is not None:
            recorder.call_id = self.attempted - 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = self.cli.main(argv)  # the wrapper during a traced call
            elapsed = time.perf_counter() - start
            problems, identical = ([f"exit code {code}: {err.getvalue().strip()}"], False) \
                if code != 0 else self.workload.check(seed, self.out_dir)
        except Exception as e:  # a crashing call counts as failed; the loop goes on
            elapsed = time.perf_counter() - start
            problems, identical = [f"{type(e).__name__}: {e}"], False
        written = sum(p.stat().st_size for p in self.out_dir.glob("*") if p.is_file())
        if problems:
            self.failed += 1
            self.problems.append({"seed": seed, "problems": problems[:5]})
        return elapsed, not problems, identical, written

    def run_for(self, seconds):
        calls = []
        deadline = time.perf_counter() + seconds
        while not calls or time.perf_counter() < deadline:
            calls.append(self.call())
        return calls


def end_to_end(calls, items_per_call, setup_s):
    lat = sorted(c[0] for c in calls)
    q = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    delivered = items_per_call * sum(1 for c in calls if c[1])
    return {
        "setup_s": setup_s,
        "items_per_s": delivered / sum(lat),
        "call_p50_ms": 1e3 * statistics.median(lat),
        "call_p90_ms": 1e3 * q[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment(workload_seed):
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": commit,
        "workload_seed": workload_seed,
    }


def run_one(args):
    jghm, workload, work, config_path = setup(args.workload, args.golden_dir)
    if args.setup_only:
        shutil.rmtree(work)
        return 0
    setup_s = time_setups(args) if not args.trace else None
    loop = Loop(jghm, workload, work, config_path, workload.seed_order(args.seed))
    loop.call()  # warm-up: checked and counted as attempted, not timed
    result = {}
    if not args.trace:
        calls = loop.run_for(args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(calls, workload.items, setup_s).items()}
        result["call_count"] = len(calls)
        result["latencies_ms"] = [round(1e3 * c[0], 3) for c in calls]
    else:
        import layertrace

        # Untraced and traced calls alternate, so that a change in machine
        # speed during the run does not show up as tracing overhead.
        recorder = layertrace.Recorder()
        patches = layertrace.Patches(recorder)
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(loop.call())
            patches.apply(True)
            traced.append(loop.call(recorder))
            patches.apply(False)
        items = workload.items * sum(1 for c in traced if c[1])
        metrics = layertrace.layer_metrics(recorder, items)
        metrics["cli.bytes_written"] = (statistics.fmean(c[3] for c in traced), "bytes/call")
        metrics["cli.outputs_byte_identical"] = (sum(1 for c in traced if c[2]), "count")
        mean_s = [statistics.fmean(c[0] for c in calls) for calls in (untraced, traced)]
        metrics["trace.overhead_frac"] = (1.0 - mean_s[0] / mean_s[1], "frac")
        spans_path = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        layertrace.write_spans(recorder, spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
        result["call_count"] = len(traced)
    shutil.rmtree(work)

    summary = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed), failures=loop.problems[:20], **summary)
    result_path = OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} calls; {result['call_count']} measured)")
    for failure in loop.problems[:3]:
        print(f"{args.workload} FAILED seed {failure['seed']}: {failure['problems']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(args, names):
    """Run each workload in its own process and print all their metrics."""
    results, code = {}, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--golden-dir", str(args.golden_dir)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited with code {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv=None):
    import workloads

    names = list(workloads.all_workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden-dir", type=Path, default=workloads.GOLDEN_DIR)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    try:
        return run_one(args)
    except (ImportError, OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        print(f"bench: cannot run {args.workload}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
