"""The three benchmark workloads: their CLI configs, item counts and the
check each CLI call's output must pass.

Every call's output is compared with golden values produced by the
seed-commit program for the same call seed (see make_golden.py). A workload
has a pool of call seeds with goldens; the workload seed only chooses the
order in which a run walks the pool, so every call of a run gets a distinct
seed as long as the run makes no more calls than the pool holds.
"""

import csv
import hashlib
import json
import random
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

LARGE = {"depth": 4, "m_im": [3, 3, 3, 3], "m_tx": [3, 3, 3, 3], "n_states": 10}
REFERENCE = {"depth": 2, "m_im": [2, 2], "m_tx": [2, 2], "n_states": 3}

REL_TOL = 1e-9  # CSV estimates and standard errors against the goldens
ORACLE_TOL = 1e-12  # oracle_conditional against the benchmark's own table


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= REL_TOL * abs(want)


class Workload:
    """One CLI command on a fixed config; `items` is what one call delivers."""

    def __init__(self, name, command, config, item_key, csv_name, extra_files=()):
        self.name = name
        self.command = command
        self.config = config
        self.items = config[item_key]
        self.csv_name = csv_name
        self.files = (csv_name,) + tuple(extra_files)

    def argv(self, config_path, seed, out_dir):
        return [self.command, "--config", str(config_path), "--seed", str(seed),
                "--out", str(out_dir), "--threads", "1"]

    # -- goldens -----------------------------------------------------------

    def load_golden(self, golden_dir=GOLDEN_DIR):
        golden = json.loads((Path(golden_dir) / f"{self.name}.json").read_text())
        if golden["config"] != self.config:
            raise ValueError(f"{self.name}: golden file was made for another config")
        self.golden = golden
        self.pool = sorted(int(s) for s in golden["calls"])

    def seed_order(self, workload_seed):
        """Call seeds for a run: the pool in an order fixed by the workload seed."""
        order = list(self.pool)
        random.Random(workload_seed).shuffle(order)
        return order

    def record(self, seed, out_dir):
        """Golden entry for one call (used by make_golden.py)."""
        out_dir = Path(out_dir)
        rows = self._read_csv(out_dir / self.csv_name)[2]
        return {
            "values": [float(v) for row in rows for v in row[1:3]],
            "sha256": {f: digest((out_dir / f).read_bytes()) for f in self.files},
        }

    def csv_meta(self, out_dir):
        """The seed-independent output metadata (used by make_golden.py)."""
        comments, header, rows = self._read_csv(Path(out_dir) / self.csv_name)
        return {
            "comments": [c for c in comments if not c.startswith("# seed=")],
            "header": header,
            "rows": [row[:1] + row[3:9] for row in rows],
        }

    # -- checking ----------------------------------------------------------

    @staticmethod
    def _read_csv(path):
        lines = path.read_text().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        body = list(csv.reader(line for line in lines if not line.startswith("#")))
        return comments, body[0], body[1:]

    def check(self, seed, out_dir):
        """Return (problems, byte_identical) for one call's output files."""
        out_dir = Path(out_dir)
        want = self.golden["calls"][str(seed)]
        meta = self.golden["meta"]
        problems = []
        comments, header, rows = self._read_csv(out_dir / self.csv_name)
        want_comments = list(meta["comments"])
        want_comments.insert(1, f"# seed={seed}")
        if comments != want_comments:
            problems.append(f"csv comments {comments} != {want_comments}")
        if header != meta["header"]:
            problems.append(f"csv header {header} != {meta['header']}")
        if len(rows) != len(meta["rows"]):
            problems.append(f"{len(rows)} csv rows, expected {len(meta['rows'])}")
        else:
            for i, (row, fixed) in enumerate(zip(rows, meta["rows"])):
                if row[:1] + row[3:9] != fixed or row[9] != str(seed):
                    problems.append(f"csv row {i} metadata {row} differs")
                for j, col in ((0, 1), (1, 2)):
                    try:
                        ok = _close(float(row[col]), want["values"][2 * i + j])
                    except ValueError:
                        ok = False
                    if not ok:
                        problems.append(f"csv row {i} {header[col]} {row[col]} != "
                                        f"{want['values'][2 * i + j]!r}")
        problems.extend(self.check_extra(seed, out_dir, want))
        identical = all(digest((out_dir / f).read_bytes()) == want["sha256"][f]
                        for f in self.files)
        return problems, identical

    def check_extra(self, seed, out_dir, want):
        return []


class CdmSampleWorkload(Workload):
    """`jghm cdm-sample`: also checks histogram.json."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, extra_files=("histogram.json",), **kwargs)
        self.conditional = None

    def prepare_reference(self, jghm):
        """Exact P(x_im | x_tx) for every text, from the enumeration oracle."""
        cfg = self.config
        topo = cfg["topology"]
        model = jghm.make_pflip_model(jghm.ModelGenSpec(
            topology=jghm.TreeTopology(depth=topo["depth"], m_im=tuple(topo["m_im"]),
                                       m_tx=tuple(topo["m_tx"]), n_states=topo["n_states"]),
            p_flip=cfg["p_flip"], seed=cfg["model_seed"]))
        table = jghm.enumerate_joint(model)
        self.table = table
        self.conditional = table.joint / table.joint.sum(axis=0, keepdims=True)

    def record(self, seed, out_dir):
        entry = super().record(seed, out_dir)
        hist = json.loads((Path(out_dir) / "histogram.json").read_text())
        entry["text"] = hist["text"]
        entry["counts"] = {str(i): c for i, c in enumerate(hist["counts"]) if c}
        return entry

    def csv_meta(self, out_dir):
        meta = super().csv_meta(out_dir)
        hist = json.loads((Path(out_dir) / "histogram.json").read_text())
        meta["histogram"] = {"build": hist["build"], "config_hash": hist["config_hash"],
                             "n_counts": len(hist["counts"])}
        return meta

    def check_extra(self, seed, out_dir, want):
        problems = []
        hist = json.loads((Path(out_dir) / "histogram.json").read_text())
        fixed = self.golden["meta"]["histogram"]
        for key in ("build", "config_hash"):
            if hist.get(key) != fixed[key]:
                problems.append(f"histogram {key} {hist.get(key)!r} != {fixed[key]!r}")
        if hist.get("seed") != seed:
            problems.append(f"histogram seed {hist.get('seed')!r} != {seed}")
        if hist.get("text") != want["text"]:
            problems.append(f"histogram text {hist.get('text')} != {want['text']}")
            return problems
        counts = [0] * fixed["n_counts"]
        for i, c in want["counts"].items():
            counts[int(i)] = c
        if hist.get("counts") != counts:
            problems.append("histogram counts differ from the golden counts")
        ref = self.conditional[:, self.table.index("tx", np.asarray(want["text"]))]
        got = np.asarray(hist.get("oracle_conditional", []), dtype=float)
        if got.shape != ref.shape or not np.all(np.abs(got - ref) <= ORACLE_TOL):
            problems.append("oracle_conditional differs from the enumerated table")
        return problems


def all_workloads():
    sweep = {"topology": LARGE, "model_seed": 11, "p_flip_list": [0.3],
             "train_p_flip": 0.2, "K": 8}
    return {
        "clip-large": Workload(
            "clip-large", "sweep", dict(sweep, task="clip", n=48), "n", "sweep.csv"),
        "vlm-large": Workload(
            "vlm-large", "sweep", dict(sweep, task="vlm", n=96), "n", "sweep.csv"),
        "cdm-sample-ref": CdmSampleWorkload(
            "cdm-sample-ref", "cdm-sample",
            {"topology": REFERENCE, "p_flip": 0.3, "model_seed": 11,
             "T": 20.0, "dt": 0.2, "n_paths": 16},
            "n_paths", "cdm_sample.csv"),
    }
