"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, straight from the criteria. Run with
`pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from jghm import (
    bayes_denoiser,
    clip_excess_and_mi_limit,
    misspec_bp_eval,
    next_token_posterior_bp,
    next_token_posteriors_parallel,
    posterior_floor,
    root_posterior,
    sample_joint,
    stream,
    vlm_divergence,
    zsc_kl_sweep,
)
from jghm.diffusion import SdeConfig, law_distance, sample_image_sde, sampled_law
from jghm.encoders import (
    canonical_encoder,
    coarsened_root_encoder,
    coarsened_score,
    constant_encoder,
    exact_score,
    prefix_text_encoder,
)
from jghm.metrics import cdm_estimation_error
from jghm.model import ModelGenSpec, effective_b_psi, make_pflip_model
from jghm.oracle import (
    enumerate_joint,
    exact_conditional_root,
    exact_denoiser,
    exact_mi_encoder,
    exact_next_token,
    exact_suff_encoder,
    exact_suff_score,
    mi_from_joint,
)
from jghm.presets import (
    diffusion_model,
    reference_model,
    reference_topology,
    zsc_reference_model,
)
from jghm.sampler import NoisyImage


def report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion:02d}] {status}: {detail}", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def model_battery():
    """20 random strictly positive models on the desk-scale topology."""
    topo = reference_topology()
    p_values = np.linspace(0.1, 1.0, 20)
    return [
        make_pflip_model(ModelGenSpec(topology=topo, p_flip=float(p), seed=seed))
        for seed, p in enumerate(p_values)
    ]


@pytest.fixture(scope="module")
def battery():
    return model_battery()


@pytest.fixture(scope="module")
def ref():
    model = reference_model()
    return model, enumerate_joint(model)


@pytest.fixture(scope="module")
def mi_run(ref):
    """Shared heavy run for criteria 3 and 4: optimal-score losses and the
    lossy-score excess on common batches, K sweep at n = 1e5."""
    model, _ = ref
    return clip_excess_and_mi_limit(
        model, coarsened_score(model), [2, 8, 32, 128], 100_000, seed=1201
    )


def test_criterion_01_bp_matches_enumeration(battery):
    t_start = time.time()
    worst = 0.0
    for idx, model in enumerate(battery):
        table = enumerate_joint(model)
        rng = stream(idx, "acc1")
        for _ in range(3):
            s = sample_joint(model, rng)
            for modality, leaves in (("im", s.x_im), ("tx", s.x_tx)):
                err = np.abs(
                    root_posterior(model, modality, leaves)
                    - exact_conditional_root(table, modality, leaves)
                ).max()
                worst = max(worst, err)
            i, j = table.index("im", s.x_im), table.index("tx", s.x_tx)
            want = np.log(table.joint[i, j] / (table.p_im[i] * table.p_tx[j]))
            worst = max(worst, abs(exact_score(model)(s.x_im, s.x_tx) - want))
            for k in range(5):
                t = float(rng.uniform(0.05, 6.0))
                z = t * s.x_im + np.sqrt(t) * rng.standard_normal(4)
                err = np.abs(
                    bayes_denoiser(model, NoisyImage(t=t, z=z), s.x_tx)
                    - exact_denoiser(table, z, t, s.x_tx)
                ).max()
                worst = max(worst, err)
            for i_pre in range(4):
                err = np.abs(
                    next_token_posterior_bp(model, s.x_im, s.x_tx[:i_pre])
                    - exact_next_token(table, s.x_im, s.x_tx[:i_pre])
                ).max()
                worst = max(worst, err)
    elapsed = time.time() - t_start
    ok = worst <= 1e-8 and elapsed < 60.0
    report(1, ok, f"max |BP - enumeration| = {worst:.2e} over 20 models, {elapsed:.1f}s")


def test_criterion_02_parallel_matches_sequential(battery):
    worst = 0.0
    for idx, model in enumerate(battery):
        rng = stream(idx, "acc2")
        for _ in range(3):
            s = sample_joint(model, rng)
            par = next_token_posteriors_parallel(model, s.x_im, s.x_tx)
            for i in range(4):
                seq = next_token_posterior_bp(model, s.x_im, s.x_tx[:i])
                worst = max(worst, np.abs(par[i] - seq).max())
    ok = worst <= 1e-12
    report(2, ok, f"max |parallel - sequential| = {worst:.2e} across all prefixes")


def test_criterion_03_mi_limit(ref, mi_run):
    _, table = ref
    mi = mi_from_joint(table.joint)
    series = [r for r in mi_run if r.name == "mi_limit"]
    ests = [r.estimate for r in series]
    ses = [r.se for r in series]
    final_ok = abs(ests[-1] - mi) <= max(0.02, 4 * ses[-1])
    monotone_ok = all(
        b >= a - 4 * (sa + sb) for a, b, sa, sb in zip(ests, ests[1:], ses, ses[1:])
    )
    report(
        3,
        final_ok and monotone_ok,
        f"-R*/2+logK at K=128: {ests[-1]:.4f} vs MI {mi:.4f} "
        f"(gap {abs(ests[-1]-mi):.4f}), monotone={monotone_ok}",
    )


def test_criterion_04_excess_matches_sufficiency(ref, mi_run):
    model, table = ref
    suff = exact_suff_score(table, coarsened_score(model))
    excess = [r for r in mi_run if r.name == "clip_excess"][-1]
    gap_ok = abs(excess.estimate - suff) <= max(0.05, 4 * excess.se)
    star = clip_excess_and_mi_limit(model, exact_score(model), [8], 2_000, seed=1202)
    star_excess = next(r for r in star if r.name == "clip_excess")
    zero_ok = star_excess.estimate == 0.0
    report(
        4,
        gap_ok and zero_ok,
        f"excess@K=128 {excess.estimate:.4f} vs Suff {suff:.4f}; "
        f"excess(optimal) == {star_excess.estimate}",
    )


def test_criterion_05_sufficiency_identities(ref):
    model, table = ref
    mi = mi_from_joint(table.joint)
    shipped = [
        ("im", coarsened_root_encoder(model, "im")),
        ("im", constant_encoder(model, "im")),
        ("tx", coarsened_root_encoder(model, "tx")),
        ("tx", constant_encoder(model, "tx")),
        ("tx", prefix_text_encoder(model)),
    ]
    identity_ok = True
    for modality, enc in shipped:
        suff = exact_suff_encoder(table, enc, modality)
        gap = abs(suff - (mi - exact_mi_encoder(table, enc, modality)))
        identity_ok &= gap <= 1e-9
    exact_suff = exact_suff_encoder(table, canonical_encoder(model, "im"), "im")
    const_suff = exact_suff_encoder(table, constant_encoder(model, "im"), "im")
    ok = identity_ok and exact_suff <= 1e-9 and abs(const_suff - mi) <= 1e-9
    report(
        5,
        ok,
        f"identity holds for {len(shipped)} encoders; Suff(exact)={exact_suff:.1e}, "
        f"Suff(constant)-MI={const_suff - mi:.1e}",
    )


def test_criterion_06_zsc():
    model = zsc_reference_model()
    table = enumerate_joint(model)
    sweep = zsc_kl_sweep(model, exact_score(model), [4, 16, 64, 256], 1_500, seed=1206)
    kl256 = sweep[-1]
    small_ok = kl256.estimate <= 0.05
    trend_ok = all(
        b.estimate <= a.estimate + 4 * (a.se + b.se) for a, b in zip(sweep, sweep[1:])
    )
    lossy = coarsened_score(model)
    suff = exact_suff_score(table, lossy)
    lossy_kl = zsc_kl_sweep(model, lossy, [4096], 600, seed=1207)[0]
    lossy_ok = lossy_kl.estimate <= suff + 0.02
    report(
        6,
        small_ok and trend_ok and lossy_ok,
        f"KL@M=256 = {kl256.estimate:.4f} <= 0.05; trend ok={trend_ok}; "
        f"lossy KL@M=4096 {lossy_kl.estimate:.4f} <= Suff {suff:.4f} + 0.02",
    )


def test_criterion_07_cdm_inequality(ref):
    model, table = ref
    lossy = cdm_estimation_error(
        model, table, coarsened_root_encoder(model, "tx"), t=1.0, n=6_000, seed=1208
    )
    bound_ok = lossy.estimate <= lossy.metadata["bound"] + 4 * lossy.se
    exact = cdm_estimation_error(
        model, table, canonical_encoder(model, "tx"), t=1.0, n=2_000, seed=1209
    )
    exact_ok = exact.estimate <= 4 * exact.se + 1e-12
    report(
        7,
        bound_ok and exact_ok and lossy.metadata["suff"] > 0,
        f"coarsened error {lossy.estimate:.5f} <= 2S^2*Suff = {lossy.metadata['bound']:.4f}; "
        f"exact-encoder error {exact.estimate:.2e}",
    )


def test_criterion_08_vlm_inequality(ref):
    model, table = ref
    ok = True
    details = []
    for enc in (
        canonical_encoder(model, "im"),
        coarsened_root_encoder(model, "im"),
        constant_encoder(model, "im"),
    ):
        r = vlm_divergence(table, enc)
        ok &= r.estimate <= r.metadata["suff"] + 1e-9
        details.append(f"{enc.name}: D={r.estimate:.4f}<=Suff={r.metadata['suff']:.4f}")
    exact_r = vlm_divergence(table, canonical_encoder(model, "im"))
    ok &= exact_r.estimate <= 1e-9
    report(8, ok, "; ".join(details))


def test_criterion_09_diffusion_sampling():
    t_start = time.time()
    model = diffusion_model()
    x_tx = sample_joint(model, stream(9, "acc9-text")).x_tx
    cfg = SdeConfig(horizon=20.0, dt=0.01, n_paths=20_000, seed=1210)
    tv = law_distance(*sampled_law(model, x_tx, cfg), cfg)
    tv_ok = tv.estimate <= 0.05
    zero = sample_image_sde(
        model, x_tx, SdeConfig(horizon=20.0, dt=0.01, n_paths=5_000, seed=1211),
        drift_fn=lambda z, t: np.zeros_like(z),
    )
    var = zero.var(axis=0)
    var_se = (1 / 20.0) * np.sqrt(2.0 / (5_000 - 1))
    var_ok = np.all(np.abs(var - 1 / 20.0) <= 4 * var_se)
    elapsed = time.time() - t_start
    ok = tv_ok and var_ok and elapsed < 300.0
    report(
        9,
        ok,
        f"TV = {tv.estimate:.4f} <= 0.05 (se {tv.se:.4f}); zero-drift var ok={var_ok}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_bound_lemmas():
    topo = reference_topology()
    ok = True
    details = []
    for seed, p in ((41, 0.3), (42, 0.6), (43, 1.0)):
        model = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p, seed=seed))
        table = enumerate_joint(model)
        b_psi = effective_b_psi(model)
        score_bound = 2 * topo.m_first * np.log(b_psi)
        n_im, n_tx = len(table.tuples_im), len(table.tuples_tx)
        im = np.repeat(table.tuples_im, n_tx, axis=0)
        tx = np.tile(table.tuples_tx, (n_im, 1))
        scores = exact_score(model)(im, tx)
        score_ok = np.all(np.abs(scores) <= score_bound + 1e-12)
        floor = posterior_floor(model)
        floor_ok = all(
            root_posterior(model, modality, table.tuples(modality)).min() >= floor - 1e-12
            for modality in ("im", "tx")
        )
        ok &= score_ok and floor_ok
        details.append(f"p={p}: |S|<= {score_bound:.2f} ok={score_ok}, floor ok={floor_ok}")
    report(10, ok, "; ".join(details))


def test_criterion_11_ood_trends():
    topo = reference_topology()
    train = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=31))
    grid = [0.1, 0.2, 0.3, 0.4]
    excesses, risks = [], []
    for p in grid:
        test = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p, seed=31))
        res = misspec_bp_eval(train, test, "zsc", n=20_000, seed=1211)
        excesses.append(res.excess)
        risks.append((res.risk.estimate - res.excess.estimate, res.risk.se))
    nonneg_ok = all(e.estimate >= -4 * e.se for e in excesses)
    argmin_ok = int(np.argmin([e.estimate for e in excesses])) == grid.index(0.2)
    monotone_ok = all(
        b >= a - 4 * (sa + sb)
        for (a, sa), (b, sb) in zip(risks, risks[1:])
    )
    report(
        11,
        nonneg_ok and argmin_ok and monotone_ok,
        "excess(test p) = "
        + ", ".join(f"{p}:{e.estimate:.4f}" for p, e in zip(grid, excesses))
        + f"; argmin at train ok={argmin_ok}; Bayes risk monotone ok={monotone_ok}",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "jghm.cli", *args], capture_output=True, text=True
    )


def test_criterion_12_determinism(tmp_path):
    topo = {"depth": 2, "m_im": [2, 2], "m_tx": [2, 2], "n_states": 3}
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps(
            {"task": "zsc", "topology": topo, "model_seed": 3,
             "p_flip_list": [0.1, 0.3], "train_p_flip": 0.2, "n": 400, "seed": 5}
        )
    )
    exp_cfg = tmp_path / "exp.json"
    exp_cfg.write_text(
        json.dumps({"topology": topo, "p_flip": 0.3, "model_seed": 3, "n": 4,
                    "seed": 21, "noise_t": 1.0})
    )
    digests = {}
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / f"run-{tag}"
        r1 = _run_cli("sweep", "--config", str(sweep_cfg), "--out", str(out), "--threads", threads)
        r2 = _run_cli("export-dataset", "--config", str(exp_cfg), "--out", str(out),
                      "--with-messages")
        assert r1.returncode == 0 and r2.returncode == 0
        digests[tag] = (
            hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest(),
            hashlib.sha256((out / "dataset.jsonl").read_bytes()).hexdigest(),
        )
    ok = digests["a"] == digests["b"] == digests["c"]
    report(12, ok, f"sweep+dataset digests identical across reruns and threads 1/8: {ok}")
