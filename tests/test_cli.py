import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from jghm import ModelGenSpec, TreeTopology, make_pflip_model, misspec_bp_eval
from jghm.model import model_to_json
from jghm.cli import main

TOPO = {"depth": 2, "m_im": [2, 2], "m_tx": [2, 2], "n_states": 3}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "jghm.cli", *args], capture_output=True, text=True
    )


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


class TestGenModel:
    def test_deterministic_output(self, workdir):
        cfg = workdir / "gen.json"
        cfg.write_text(json.dumps({"topology": TOPO, "p_flip": 0.25, "model_seed": 3}))
        r1 = run_cli("gen-model", "--config", str(cfg), "--out", str(workdir / "a"))
        r2 = run_cli("gen-model", "--config", str(cfg), "--out", str(workdir / "b"))
        assert r1.returncode == 0 and r2.returncode == 0
        assert "B_psi" in r1.stdout
        assert digest(workdir / "a/model.json") == digest(workdir / "b/model.json")

    def test_invalid_topology_exits_nonzero(self, workdir):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"topology": {**TOPO, "n_states": 1}, "p_flip": 0.2}))
        r = run_cli("gen-model", "--config", str(cfg), "--out", str(workdir))
        assert r.returncode != 0
        assert "error" in r.stderr

    def test_missing_config_usage_error(self, workdir):
        cfg = workdir / "none.json"
        r = run_cli("gen-model", "--config", str(cfg), "--out", str(workdir))
        assert r.returncode == 2


class TestSweep:
    def test_row_count_and_thread_determinism(self, workdir):
        cfg = workdir / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "task": "zsc",
                    "topology": TOPO,
                    "model_seed": 3,
                    "p_flip_list": [0.1, 0.2, 0.3],
                    "train_p_flip": 0.2,
                    "n": 300,
                    "seed": 5,
                }
            )
        )
        r1 = run_cli("sweep", "--config", str(cfg), "--out", str(workdir / "t1"), "--threads", "1")
        r8 = run_cli("sweep", "--config", str(cfg), "--out", str(workdir / "t8"), "--threads", "8")
        assert r1.returncode == 0 and r8.returncode == 0
        assert digest(workdir / "t1/sweep.csv") == digest(workdir / "t8/sweep.csv")
        lines = (workdir / "t1/sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# build=")
        assert lines[1].startswith("# seed=5")
        assert lines[2].startswith("# config_hash=")
        # header + 3 rows per point (bayes risk, ood risk, ood excess)
        assert len(lines) == 3 + 1 + 3 * 3
        rows = list(csv.reader(lines[4:]))
        topo = TreeTopology(depth=2, m_im=(2, 2), m_tx=(2, 2), n_states=3)
        train = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=3))
        for i, p in enumerate([0.1, 0.2, 0.3]):
            test = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p, seed=3))
            res = misspec_bp_eval(train, test, "zsc", n=300, seed=5)
            assert rows[3 * i:3 * i + 3] == [r.csv_row() for r in (res.bayes, res.risk, res.excess)]

    def test_bayes_only_sweep(self, workdir):
        cfg = workdir / "sweep2.json"
        cfg.write_text(
            json.dumps(
                {"task": "clip", "topology": TOPO, "model_seed": 3,
                 "p_flip_list": [0.2, 0.4], "n": 200, "K": 4, "seed": 1}
            )
        )
        r = run_cli("sweep", "--config", str(cfg), "--out", str(workdir / "c"))
        assert r.returncode == 0
        lines = (workdir / "c/sweep.csv").read_text().splitlines()
        assert len(lines) == 3 + 1 + 2

    def test_empty_sweep_rejected(self, workdir):
        cfg = workdir / "sweep3.json"
        cfg.write_text(json.dumps({"task": "zsc", "topology": TOPO, "p_flip_list": []}))
        r = run_cli("sweep", "--config", str(cfg), "--out", str(workdir))
        assert r.returncode == 2

    @pytest.mark.parametrize("task", ["cdm", "vlm"])
    def test_all_tasks_run(self, workdir, task):
        cfg = workdir / f"sweep-{task}.json"
        cfg.write_text(
            json.dumps({"task": task, "topology": TOPO, "model_seed": 3,
                        "p_flip_list": [0.2, 0.4], "ood": True, "n": 150, "seed": 2})
        )
        r = run_cli("sweep", "--config", str(cfg), "--out", str(workdir / task))
        assert r.returncode == 0
        lines = (workdir / task / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3 + 1 + 3 * 2  # ood default train 0.2 adds two series

    def test_unknown_command_usage_error(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2


class TestExportDataset:
    def test_line_count_and_determinism(self, workdir):
        cfg = workdir / "exp.json"
        cfg.write_text(
            json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3, "n": 5,
                        "seed": 21, "noise_t": 1.0})
        )
        r1 = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d1"),
                     "--with-messages")
        r2 = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d2"),
                     "--with-messages")
        assert r1.returncode == 0 and r2.returncode == 0
        assert digest(workdir / "d1/dataset.jsonl") == digest(workdir / "d2/dataset.jsonl")
        lines = (workdir / "d1/dataset.jsonl").read_text().splitlines()
        assert len(lines) == 5
        rec = json.loads(lines[0])
        assert rec["schema_version"] == 1
        assert set(rec["messages"]) == {"im", "tx"}
        assert len(rec["messages"]["tx"]["h"]) == 3  # levels 0..L
        assert len(rec["messages"]["tx"]["q"]) == 2  # levels 1..L
        assert rec["noisy"]["t"] == 1.0
        assert len(rec["noisy"]["messages"]["b"]) == 3  # levels 1..L plus leaves
        assert min(min(level) for level in rec["levels"]["im"]) >= 1

    def test_messages_absent_without_flag(self, workdir):
        cfg = workdir / "exp2.json"
        cfg.write_text(json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3, "n": 2, "seed": 1}))
        r = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d3"))
        assert r.returncode == 0
        rec = json.loads((workdir / "d3/dataset.jsonl").read_text().splitlines()[0])
        assert "messages" not in rec and "noisy" not in rec

    def test_model_path_round_trip(self, workdir):
        gen = workdir / "gen.json"
        gen.write_text(json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3}))
        assert run_cli("gen-model", "--config", str(gen), "--out", str(workdir)).returncode == 0
        cfg = workdir / "exp3.json"
        cfg.write_text(json.dumps({"model_path": str(workdir / "model.json"), "n": 2, "seed": 1}))
        r = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d4"))
        assert r.returncode == 0

    def test_corrupted_model_file_names_invariant(self, workdir):
        gen = workdir / "gen.json"
        gen.write_text(json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3}))
        assert run_cli("gen-model", "--config", str(gen), "--out", str(workdir)).returncode == 0
        doc = json.loads((workdir / "model.json").read_text())
        doc["kernels_im"][0][0][0][0] += 0.5  # break a row sum
        (workdir / "model.json").write_text(json.dumps(doc))
        cfg = workdir / "exp4.json"
        cfg.write_text(json.dumps({"model_path": str(workdir / "model.json"), "n": 2, "seed": 1}))
        r = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d5"))
        assert r.returncode == 1
        assert "row sums" in r.stderr

    @pytest.mark.parametrize("field, value", [("n_states", "3"), ("m_im", [2.7, 2])])
    def test_bad_model_file_topology_exits_2(self, workdir, field, value):
        gen = workdir / "gen.json"
        gen.write_text(json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3}))
        assert run_cli("gen-model", "--config", str(gen), "--out", str(workdir)).returncode == 0
        doc = json.loads((workdir / "model.json").read_text())
        doc["topology"][field] = value
        (workdir / "model.json").write_text(json.dumps(doc))
        cfg = workdir / "exp7.json"
        cfg.write_text(json.dumps({"model_path": str(workdir / "model.json"), "n": 2, "seed": 1}))
        r = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d7"))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and r.stderr.startswith("error: ")
        assert field in r.stderr

    @pytest.mark.parametrize("malformed, named", [
        (lambda doc: "{not json", "JSON"),
        (lambda doc: json.dumps({**doc, "topology": {k: v for k, v in doc["topology"].items()
                                                     if k != "depth"}}), "depth"),
        (lambda doc: json.dumps({**doc, "root_prior": "x"}), "root_prior"),
        (lambda doc: json.dumps({**doc, "kernels_im": 5}), "kernels_im"),
        (lambda doc: json.dumps([doc]), "JSON object"),
    ], ids=["not-json", "no-depth", "root-prior-string", "kernels-number", "list"])
    def test_malformed_model_file_exits_2(self, workdir, malformed, named):
        doc = json.loads(model_to_json(make_pflip_model(
            ModelGenSpec(topology=TreeTopology(**TOPO), p_flip=0.3, seed=3))))
        (workdir / "model.json").write_text(malformed(doc))
        cfg = workdir / "exp8.json"
        cfg.write_text(json.dumps({"model_path": str(workdir / "model.json"), "n": 2, "seed": 1}))
        r = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d8"))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and r.stderr.startswith("error: ")
        assert named in r.stderr

    def test_records_carry_build_metadata(self, workdir):
        cfg = workdir / "exp5.json"
        cfg.write_text(json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3, "n": 1, "seed": 9}))
        r = run_cli("export-dataset", "--config", str(cfg), "--out", str(workdir / "d6"))
        assert r.returncode == 0
        rec = json.loads((workdir / "d6/dataset.jsonl").read_text().splitlines()[0])
        assert rec["build"].startswith("jghm-lab-") and rec["seed"] == 9
        assert len(rec["config_hash"]) == 16


class TestOtherCommands:
    def test_zsc_command(self, workdir):
        cfg = workdir / "zsc.json"
        cfg.write_text(
            json.dumps({"topology": TOPO, "p_flip": 0.3, "p_flip_tx": 0.05, "model_seed": 3,
                        "M_list": [4, 16], "n": 200, "seed": 2})
        )
        r = run_cli("zsc", "--config", str(cfg), "--out", str(workdir / "z"))
        assert r.returncode == 0
        assert len((workdir / "z/zsc.csv").read_text().splitlines()) == 3 + 1 + 2

    def test_vlm_command(self, workdir):
        cfg = workdir / "vlm.json"
        cfg.write_text(json.dumps({"topology": TOPO, "p_flip": 0.3, "model_seed": 3,
                                   "encoder": "constant"}))
        r = run_cli("vlm", "--config", str(cfg), "--out", str(workdir / "v"))
        assert r.returncode == 0

    def test_cdm_sample_command(self, workdir):
        cfg = workdir / "cdm.json"
        cfg.write_text(
            json.dumps({"topology": {"depth": 1, "m_im": [2], "m_tx": [2], "n_states": 2},
                        "p_flip": 0.35, "model_seed": 3, "T": 8.0, "dt": 0.02,
                        "n_paths": 400, "seed": 4})
        )
        r = run_cli("cdm-sample", "--config", str(cfg), "--out", str(workdir / "cd"))
        assert r.returncode == 0
        assert (workdir / "cd/cdm_sample.csv").exists()


@pytest.mark.parametrize("command, cfg", [
    ("zsc", {"model_path": "missing-model.json", "n": 10}),
    ("zsc", {"topology": TOPO, "p_flip": 0.3, "n": -3}),
    ("zsc", {"topology": TOPO, "p_flip": 0.3, "n": "x"}),
    ("zsc", {"topology": TOPO, "p_flip": 0.3, "n": 0}),
    ("zsc", {"topology": TOPO, "p_flip": 0.3, "M_list": []}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": [0.2], "K": 1}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "n_paths": True}),
    ("export-dataset", {"topology": TOPO, "p_flip": 0.3, "n": 2.5}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": ["a"]}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": 0.2}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": [0.2], "train_p_flip": "x"}),
    ("sweep", {"task": "cdm", "topology": TOPO, "p_flip_list": [0.2], "t": "x"}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": [1.5]}),
    ("sweep", {"task": "cdm", "topology": TOPO, "p_flip_list": [0.2], "t": -1}),
    ("sweep", {"task": "cdm", "topology": TOPO, "p_flip_list": [0.2], "t": True}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": [True]}),
    ("sweep", {"task": "clip", "topology": TOPO, "p_flip_list": [0.2], "train_p_flip": 1.5}),
    ("sweep --threads 0", {"task": "clip", "topology": TOPO, "p_flip_list": [0.2], "n": 10}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "text": [9, 9, 9, 9]}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "text": [1.5, 1, 1, 1]}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "text": [True, 1, 1, 1]}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "text": [1, 1, 1]}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "text": "1111"}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "train_p_flip": "x"}),
    ("export-dataset", {"topology": TOPO, "p_flip": 0.3, "n": 2, "noise_t": "x"}),
    ("export-dataset", {"topology": TOPO, "p_flip": 0.3, "n": 2, "noise_t": True}),
    ("sweep", {"task": "zsc", "topology": TOPO, "p_flip_list": [0.2], "n": 10, "seed": "x"}),
    ("sweep", {"task": "zsc", "topology": TOPO, "p_flip_list": [0.2], "n": 10, "model_seed": "x"}),
    ("sweep", {"task": "zsc", "topology": TOPO, "p_flip_list": [0.2], "n": 10, "gaussian_scale": "x"}),
    ("sweep", {"task": "zsc", "topology": TOPO, "p_flip_list": [0.2], "n": 10, "seed": 1.5}),
    ("sweep", {"task": "zsc", "topology": TOPO, "p_flip_list": [0.2], "n": 10, "model_seed": True}),
    ("sweep", {"task": "zsc", "topology": TOPO, "p_flip_list": [0.2], "n": 10, "seed": 2**200}),
    ("zsc", {"topology": TOPO, "p_flip": 0.3, "n": 10, "gaussian_scale": float("nan")}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "dt": True}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "dt": "nan"}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "dt": float("inf")}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "T": "x"}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "T": -1.0}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "T": 1.0, "dt": 0.3}),
    ("cdm-sample", {"topology": TOPO, "p_flip": 0.3, "T": 1e308, "dt": 1e-10}),
    ("gen-model", {"topology": TOPO, "p_flip": "x"}),
    ("gen-model", {"topology": TOPO, "p_flip": None}),
    ("gen-model", {"topology": TOPO, "p_flip": 1.5}),
    ("gen-model", {"topology": TOPO, "p_flip": 0.3, "p_flip_im": "x"}),
    ("gen-model", {"topology": TOPO, "p_flip": 0.3, "p_flip_tx": True}),
    ("gen-model", {"topology": {**TOPO, "n_states": "3"}, "p_flip": 0.3}),
    ("gen-model", {"topology": {**TOPO, "n_states": 1}, "p_flip": 0.3}),
    ("gen-model", {"topology": {**TOPO, "depth": 0}, "p_flip": 0.3}),
    ("gen-model", {"topology": {**TOPO, "depth": 3}, "p_flip": 0.3}),
    ("gen-model", {"topology": {**TOPO, "m_im": [2, "2"]}, "p_flip": 0.3}),
    ("gen-model", {"topology": {**TOPO, "m_tx": 2}, "p_flip": 0.3}),
    ("gen-model", {"topology": [1, 2], "p_flip": 0.3}),
    ("gen-model", [1, 2]),
])
def test_bad_config_exits_2_without_traceback(workdir, command, cfg):
    path = workdir / "bad.json"
    path.write_text(json.dumps(cfg))
    r = run_cli(*command.split(), "--config", str(path), "--out", str(workdir / "o"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and r.stderr.startswith("error: ")


SWEEP = {"topology": TOPO, "model_seed": 3, "p_flip_list": [0.1, 0.3], "train_p_flip": 0.2,
         "n": 1500, "K": 4, "t": 0.7, "seed": 5}
ZSC = {"topology": TOPO, "p_flip": 0.3, "p_flip_tx": 0.05, "model_seed": 3,
       "M_list": [4, 16], "n": 300, "seed": 2}
VLM = {"topology": TOPO, "p_flip": 0.3, "model_seed": 3}
EXPORT = {"topology": TOPO, "model_seed": 11, "n": 20, "seed": 3, "noise_t": 1.0}
CDM = {"topology": {"depth": 1, "m_im": [2], "m_tx": [2], "n_states": 2}, "p_flip": 0.35,
       "model_seed": 3, "T": 8.0, "dt": 0.02, "n_paths": 400, "seed": 4}
# the sweep configs of the clip-large and vlm-large benchmark workloads
LARGE_SWEEP = {"topology": {"depth": 4, "m_im": [3, 3, 3, 3], "m_tx": [3, 3, 3, 3], "n_states": 10},
               "model_seed": 11, "p_flip_list": [0.3], "train_p_flip": 0.2, "K": 8, "seed": 7}


# sha256 prefixes of reference-scale outputs; any change to them is a change
# of behaviour and must be deliberate
@pytest.mark.parametrize("command, cfg, digests", [
    ("sweep", {**SWEEP, "task": "clip"}, {"sweep.csv": "05e5b3ea54924243"}),
    ("sweep", {**SWEEP, "task": "zsc"}, {"sweep.csv": "0effb6eb74e2ce91"}),
    ("sweep", {**SWEEP, "task": "cdm"}, {"sweep.csv": "854b3fc63d2f9892"}),
    ("sweep", {**SWEEP, "task": "vlm"}, {"sweep.csv": "b9ca0df2c8bd6276"}),
    ("zsc", {**ZSC, "score": "exact"}, {"zsc.csv": "794ca8b1a00af0d5"}),
    ("zsc", {**ZSC, "score": "coarsened"}, {"zsc.csv": "43d51229ebc70ad3"}),
    ("zsc", {**ZSC, "score": "constant"}, {"zsc.csv": "2a7e41028995faa9"}),
    ("zsc", {**ZSC, "topology": {**TOPO, "n_states": 9}}, {"zsc.csv": "31b0bc8f054eac65"}),
    ("zsc", {**ZSC, "topology": {**TOPO, "n_states": 10}}, {"zsc.csv": "12da635dcc7d9524"}),
    ("vlm", {**VLM, "encoder": "canonical"}, {"vlm.csv": "80618e2c91abfc84"}),
    ("vlm", {**VLM, "encoder": "coarsened"}, {"vlm.csv": "5f09491360161afa"}),
    ("vlm", {**VLM, "encoder": "constant"}, {"vlm.csv": "44fc2232d3454411"}),
    ("export-dataset --with-messages", {**EXPORT, "p_flip": 0.0},
     {"dataset.jsonl": "9df877237aa207a6"}),
    ("export-dataset --with-messages", {**EXPORT, "p_flip": 0.3},
     {"dataset.jsonl": "c0bceaa9532e7600"}),
    ("cdm-sample", CDM, {"cdm_sample.csv": "a8818dcbc81c6087", "histogram.json": "92f00c59a8fe5115"}),
    ("sweep", {**LARGE_SWEEP, "task": "clip", "n": 48}, {"sweep.csv": "ddd3a107ee09874c"}),
    ("sweep", {**LARGE_SWEEP, "task": "vlm", "n": 96}, {"sweep.csv": "a72ab6492f3cc794"}),
    ("cdm-sample", {**CDM, "train_p_flip": 0.2},
     {"cdm_sample.csv": "c17aa851fb9b8fdd", "histogram.json": "cd2b5c0759cf3e91"}),
], ids=["sweep-clip", "sweep-zsc", "sweep-cdm", "sweep-vlm", "zsc-exact", "zsc-coarsened",
        "zsc-constant", "zsc-S9", "zsc-S10", "vlm-canonical", "vlm-coarsened", "vlm-constant",
        "export-p0", "export-p0.3", "cdm-sample", "clip-large", "vlm-large", "cdm-sample-train"])
def test_outputs_byte_identical(workdir, command, cfg, digests):
    path = workdir / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([*command.split(), "--config", str(path), "--out", str(workdir)]) == 0
    assert {name: digest(workdir / name)[:16] for name in digests} == digests


@pytest.mark.parametrize("encoder, estimate", [
    ("canonical", 0.0), ("coarsened", 0.46209812037329684), ("constant", np.log(3)),
])
def test_vlm_command_on_permutation_model(workdir, encoder, estimate):
    path = workdir / "vlm.json"
    path.write_text(json.dumps({**VLM, "p_flip": 0.0, "encoder": encoder}))
    assert main(["vlm", "--config", str(path), "--out", str(workdir)]) == 0
    row = list(csv.reader((workdir / "vlm.csv").read_text().splitlines()[4:]))[0]
    assert float(row[1]) == pytest.approx(estimate, abs=1e-12)


def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0
    assert "selftest: all checks passed" in r.stdout
    assert "SKIP oracle-equivalence" in r.stdout
