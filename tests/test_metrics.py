import numpy as np
import pytest

from jghm import (
    cdm_estimation_error,
    clip_excess_and_mi_limit,
    clip_risk,
    misspec_bp_eval,
    stream,
    vlm_divergence,
    zsc_kl,
    zsc_kl_sweep,
    zsc_predict,
)
from jghm.encoders import (
    canonical_encoder,
    coarsened_root_encoder,
    constant_encoder,
    constant_score,
    coarsened_score,
    exact_score,
)
from jghm import metrics
from jghm.metrics import CHUNK, RiskReport, zsc_infinite_sample_predict
from jghm.model import ModelError, ModelGenSpec, make_pflip_model
from jghm.oracle import (
    exact_denoiser,
    exact_mutual_information,
    exact_next_token,
    exact_suff_score,
    next_token_from_weights,
    score_matrix,
)
from jghm.presets import reference_topology
from jghm.sampler import sample_joint_batch
from test_model import uniform_model


class TestRiskReport:
    def test_invariants(self):
        with pytest.raises(ModelError):
            RiskReport("x", 1.0, -0.1, 10)
        with pytest.raises(ModelError):
            RiskReport("x", 1.0, 0.1, 0)

    def test_csv_row(self):
        r = RiskReport("zsc_kl", 0.5, 0.01, 100, {"M": 16, "seed": 3})
        row = r.csv_row()
        assert row[0] == "zsc_kl" and len(row) == 10
        assert row[5] == "16" and row[9] == "3"


class TestClipRisk:
    def test_constant_score_analytic(self, ref_model):
        for K in (2, 8):
            r = clip_risk(ref_model, constant_score(), K, 100, seed=1)
            assert r.estimate == pytest.approx(2 * np.log(K))
            assert r.se == 0.0

    def test_invalid_args(self, ref_model):
        with pytest.raises(ModelError):
            clip_risk(ref_model, constant_score(), 1, 10, seed=0)

    def test_k2_matches_pairwise_enumeration(self, ref_model, ref_table):
        """Independent oracle: K = 2 risk as an exact 3-way expectation."""
        smat = score_matrix(exact_score(ref_model), ref_table)
        p_im, p_tx, joint = ref_table.p_im, ref_table.p_tx, ref_table.joint
        exact = 0.0
        for i in range(len(p_im)):
            row = smat[i]
            # direction 1: negative text; direction 2: negative image
            lse_tx = np.logaddexp(row[:, None], row[None, :])  # (j1, j2)
            exact += np.sum(joint[i][:, None] * p_tx[None, :] * (lse_tx - row[:, None]))
        for j in range(len(p_tx)):
            col = smat[:, j]
            lse_im = np.logaddexp(col[:, None], col[None, :])  # (i1, i2)
            exact += np.sum(joint[:, j][:, None] * p_im[None, :] * (lse_im - col[:, None]))
        r = clip_risk(ref_model, exact_score(ref_model), 2, 20_000, seed=2)
        assert abs(r.estimate - exact) <= 4 * r.se

    def test_optimal_score_beats_competitors(self, ref_model):
        reports = clip_excess_and_mi_limit(ref_model, coarsened_score(ref_model), [8], 5_000, seed=3)
        excess = next(r for r in reports if r.name == "clip_excess")
        assert excess.estimate >= -4 * excess.se

    def test_excess_of_optimal_is_exactly_zero(self, ref_model):
        reports = clip_excess_and_mi_limit(ref_model, exact_score(ref_model), [4], 2_000, seed=4)
        excess = next(r for r in reports if r.name == "clip_excess")
        assert excess.estimate == 0.0 and excess.se == 0.0

    def test_mi_limit_convergence(self, ref_model, ref_table):
        mi = exact_mutual_information(ref_table)
        reports = clip_excess_and_mi_limit(ref_model, constant_score(), [2, 8, 32, 128], 20_000, seed=5)
        mi_reports = [r for r in reports if r.name == "mi_limit"]
        ests = [r.estimate for r in mi_reports]
        ses = [r.se for r in mi_reports]
        for a, b, sa, sb in zip(ests, ests[1:], ses, ses[1:]):
            assert b >= a - 4 * (sa + sb)
        assert abs(ests[-1] - mi) <= max(0.02, 4 * ses[-1])

    def test_excess_tracks_sufficiency(self, ref_model, ref_table):
        suff = exact_suff_score(ref_model, coarsened_score(ref_model), ref_table)
        reports = clip_excess_and_mi_limit(
            ref_model, coarsened_score(ref_model), [8, 32, 128], 20_000, seed=6
        )
        excesses = [r for r in reports if r.name == "clip_excess"]
        assert abs(excesses[-1].estimate - suff) <= max(0.05, 4 * excesses[-1].se)
        # distance to the sufficiency limit shrinks as K grows
        gaps = [abs(r.estimate - suff) for r in excesses]
        ses = [r.se for r in excesses]
        for (ga, sa), (gb, sb) in zip(zip(gaps, ses), zip(gaps[1:], ses[1:])):
            assert gb <= ga + 4 * (sa + sb)


class TestZsc:
    def test_permutation_single_sample_one_hot(self, perm_model):
        draws = sample_joint_batch(perm_model, 4, stream(7, "zsc0"))
        score = exact_score(perm_model)
        for k in range(4):
            pred = zsc_predict(perm_model, score, draws.x_im[k], 1, stream(8, "zsc0", k))
            assert pred[draws.root[k] - 1] == pytest.approx(1.0)

    def test_constant_score_uniform_prior_uniform_prediction(self):
        m = uniform_model()
        pred = zsc_predict(m, constant_score(), np.array([1, 2, 3, 1]), 4, stream(9, "zscu"))
        assert np.allclose(pred, 1.0 / 3.0)

    def test_large_m_matches_analytic_limit(self, zsc_model, zsc_table):
        score = exact_score(zsc_model)
        draws = sample_joint_batch(zsc_model, 3, stream(10, "zsclim"))
        for k in range(3):
            lim = zsc_infinite_sample_predict(zsc_model, score, draws.x_im[k], zsc_table)
            mc = zsc_predict(zsc_model, score, draws.x_im[k], 4096, stream(11, "zsclim", k))
            assert 0.5 * np.abs(lim - mc).sum() <= 1e-2

    def test_kl_sweep_non_increasing(self, zsc_model):
        reports = zsc_kl_sweep(zsc_model, exact_score(zsc_model), [4, 16, 64, 256], 1500, seed=12)
        for a, b in zip(reports, reports[1:]):
            assert b.estimate <= a.estimate + 4 * (a.se + b.se)

    def test_exact_score_small_kl(self, zsc_model):
        r = zsc_kl(zsc_model, exact_score(zsc_model), 256, 1500, seed=13)
        assert r.estimate <= 0.05

    def test_lossy_score_bounded_by_sufficiency(self, zsc_model, zsc_table):
        score = coarsened_score(zsc_model)
        suff = exact_suff_score(zsc_model, score, zsc_table)
        r = zsc_kl(zsc_model, score, 4096, 600, seed=14)
        assert r.estimate <= suff + 0.02

    def test_kl_grows_with_mixing(self):
        # low mixing: text pins the root and the classifier is near exact
        topo = reference_topology()
        results = []
        for p in (0.02, 0.4):
            m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p, seed=8))
            results.append(zsc_kl(m, exact_score(m), 16, 1_500, seed=15))
        low, high = results
        assert low.estimate < high.estimate - 4 * (low.se + high.se)


class TestCdm:
    def test_exact_encoder_zero_error(self, ref_model, ref_table):
        r = cdm_estimation_error(ref_model, canonical_encoder(ref_model, "tx"), t=1.0,
                                 n=2_000, seed=15, table=ref_table)
        assert r.estimate <= 4 * r.se + 1e-12

    def test_coarsened_encoder_within_bound(self, ref_model, ref_table):
        r = cdm_estimation_error(ref_model, coarsened_root_encoder(ref_model, "tx"), t=1.0,
                                 n=4_000, seed=16, table=ref_table)
        assert r.metadata["suff"] > 0
        assert r.estimate <= r.metadata["bound"] + 4 * r.se

    def test_constant_encoder_against_oracle_route(self, ref_model, ref_table):
        """Same functional, two routes: message passing vs pure enumeration."""
        r = cdm_estimation_error(ref_model, constant_encoder(ref_model, "tx"), t=1.0,
                                 n=4_000, seed=17, table=ref_table)
        x_all = ref_table.tuples_im.astype(float)
        rng = stream(18, "cdm-oracle")
        n = 4_000
        errs = np.empty(n)
        draws = sample_joint_batch(ref_model, n, rng)
        g = rng.standard_normal((n, 4))
        z = draws.x_im + g  # t = 1
        for k in range(n):
            m_star = exact_denoiser(ref_model, z[k], 1.0, draws.x_tx[k], ref_table)
            logw = np.log(ref_table.p_im) - np.sum((z[k] - x_all) ** 2, axis=1) / 2.0
            w = np.exp(logw - logw.max())
            w /= w.sum()
            errs[k] = np.mean((m_star - w @ x_all) ** 2)
        se = errs.std(ddof=1) / np.sqrt(n)
        assert abs(r.estimate - errs.mean()) <= 4 * (r.se + se)

    def test_permutation_model_exact_encoder_zero_error(self, perm_model, perm_table):
        r = cdm_estimation_error(perm_model, canonical_encoder(perm_model, "tx"), t=1.0,
                                 n=500, seed=19, table=perm_table)
        assert r.estimate == 0.0 and r.metadata["suff"] == 0.0


class TestVlm:
    def test_exact_encoder_zero(self, ref_model, ref_table):
        r = vlm_divergence(ref_model, canonical_encoder(ref_model, "im"), ref_table)
        assert 0 <= r.estimate <= 1e-9

    def test_divergence_equals_sufficiency(self, ref_model, ref_table):
        for enc in (coarsened_root_encoder(ref_model, "im"), constant_encoder(ref_model, "im")):
            r = vlm_divergence(ref_model, enc, ref_table)
            assert r.estimate <= r.metadata["suff"] + 1e-9
            assert r.estimate == pytest.approx(r.metadata["suff"], abs=1e-9)

    def test_permutation_model_divergence_equals_sufficiency(self, perm_model, perm_table):
        for enc in (canonical_encoder(perm_model, "im"), coarsened_root_encoder(perm_model, "im"),
                    constant_encoder(perm_model, "im")):
            r = vlm_divergence(perm_model, enc, perm_table)
            assert r.estimate == pytest.approx(r.metadata["suff"], abs=1e-12)
        assert r.estimate == pytest.approx(np.log(3), abs=1e-12)

    def test_constant_encoder_against_direct_enumeration(self, ref_model, ref_table):
        r = vlm_divergence(ref_model, constant_encoder(ref_model, "im"), ref_table)
        total = 0.0
        for i in range(len(ref_table.p_im)):
            if ref_table.p_im[i] == 0:
                continue
            x_im = ref_table.tuples_im[i]
            for j in range(len(ref_table.p_tx)):
                if ref_table.joint[i, j] == 0:
                    continue
                x_tx = ref_table.tuples_tx[j]
                for pos in range(4):
                    mu_true = exact_next_token(ref_model, x_im, x_tx[:pos], ref_table)
                    mu_hat = next_token_from_weights(ref_table, ref_table.p_tx, x_tx[:pos])
                    tok = x_tx[pos] - 1
                    total += ref_table.joint[i, j] * (np.log(mu_true[tok]) - np.log(mu_hat[tok]))
        assert r.estimate == pytest.approx(total, abs=1e-9)


class TestMisspec:
    @pytest.mark.parametrize("task", ["clip", "zsc", "cdm", "vlm"])
    def test_matched_models_zero_excess(self, ref_model, task):
        result = misspec_bp_eval(ref_model, ref_model, task, n=400, seed=19)
        assert result.excess.estimate == 0.0
        assert result.excess.se == 0.0

    @pytest.mark.parametrize("task", ["clip", "zsc", "cdm", "vlm"])
    def test_bayes_report_equals_matched_risk(self, task):
        topo = reference_topology()
        train = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=31))
        test = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.3, seed=31))
        kwargs = {"n": CHUNK + 76, "seed": 22, "K": 4, "t": 0.5}
        paired = misspec_bp_eval(train, test, task, **kwargs)
        matched = misspec_bp_eval(test, test, task, **kwargs)
        # dataclass equality: name, estimate, se, n and metadata, exactly
        assert paired.bayes == matched.risk
        assert matched.bayes == matched.risk
        assert paired.bayes.metadata["p_flip_train"] == 0.3
        assert paired.risk.metadata["p_flip_train"] == 0.2

    @pytest.mark.parametrize("matched, per_chunk", [(True, 1), (False, 2)])
    def test_vlm_inference_once_per_distinct_model(self, ref_model, monkeypatch, matched,
                                                   per_chunk):
        train = ref_model if matched else make_pflip_model(
            ModelGenSpec(topology=reference_topology(), p_flip=0.2, seed=31))
        calls = []
        real = metrics.text_log_likelihood

        def counting(model, *args):
            calls.append(model)
            return real(model, *args)

        monkeypatch.setattr(metrics, "text_log_likelihood", counting)
        misspec_bp_eval(train, ref_model, "vlm", n=CHUNK + 1, seed=19)
        assert len(calls) == 2 * per_chunk  # two chunks
        assert {id(m) for m in calls} == {id(ref_model), id(train)}

    def test_mismatched_zsc_positive_excess(self):
        topo = reference_topology()
        train = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=31))
        test = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.4, seed=31))
        result = misspec_bp_eval(train, test, "zsc", n=4_000, seed=20)
        assert result.excess.estimate > 4 * result.excess.se

    def test_metadata_tags(self):
        topo = reference_topology()
        train = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=31))
        test = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.3, seed=31))
        result = misspec_bp_eval(train, test, "cdm", n=200, seed=21)
        assert result.risk.metadata["p_flip_train"] == 0.2
        assert result.risk.metadata["p_flip_test"] == 0.3

    def test_unknown_task(self, ref_model):
        with pytest.raises(ModelError):
            misspec_bp_eval(ref_model, ref_model, "nope", n=10, seed=0)
