import warnings

import numpy as np
import pytest

from jghm import (
    cdm_estimation_error,
    clip_excess_and_mi_limit,
    clip_risk,
    misspec_bp_eval,
    stream,
    vlm_divergence,
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
from jghm.metrics import CHUNK, RiskReport, _monte_carlo, zsc_infinite_sample_predict
from jghm.model import ModelError, ModelGenSpec, make_pflip_model
from jghm.oracle import (
    exact_denoiser,
    exact_next_token,
    exact_suff_score,
    mi_from_joint,
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


class TestMonteCarlo:
    """The one chunk loop behind every Monte-Carlo estimator and the SDE."""

    @pytest.mark.parametrize("size", [CHUNK, 7])
    @pytest.mark.parametrize("n_of", [lambda s: 1, lambda s: s, lambda s: s + 1, lambda s: 3 * s + 2],
                             ids=["1", "size", "size+1", "3size+2"])
    def test_blocks_in_chunk_order(self, size, n_of):
        n = n_of(size)
        calls, blocks = [], []

        def rows(c, B):
            calls.append((c, B))
            blocks.append(np.stack([np.full(B, c), np.arange(B)], axis=1))
            return blocks[-1]

        out = _monte_carlo(n, rows, size)
        k = -(-n // size)
        assert calls == [(c, size) for c in range(k - 1)] + [(k - 1, n - (k - 1) * size)]
        assert out.shape == (n, 2) and np.array_equal(out, np.concatenate(blocks))

    @pytest.mark.parametrize("estimate", [
        lambda m, table: clip_risk(m, exact_score(m), 4, 0, seed=0),
        lambda m, table: clip_excess_and_mi_limit(m, coarsened_score(m), [4], 0, seed=0),
        lambda m, table: zsc_kl_sweep(m, exact_score(m), [4], 0, seed=0),
        lambda m, table: cdm_estimation_error(m, table, constant_encoder(m, "tx"), 1.0, 0, seed=0),
        *[lambda m, table, task=task: misspec_bp_eval(m, m, task, n=0) for task in metrics.MISSPEC_TASKS],
    ], ids=["clip_risk", "clip_excess", "zsc_kl", "cdm", *[f"misspec-{task}" for task in metrics.MISSPEC_TASKS]])
    def test_no_rows_raises_before_any_warning(self, ref_model, ref_table, estimate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="n >= 1"):
                estimate(ref_model, ref_table)

    def test_multi_chunk_estimates_bitwise_pinned(self, ref_model, ref_table):
        """float.hex of estimate and se of multi-chunk runs, taken before the
        estimators moved onto the one chunk loop: clip 2 chunks, zsc 4 chunks
        of 65536 // 300 = 218 rows, cdm 3 chunks."""
        def hexes(reports):
            return [(r.name, r.estimate.hex(), r.se.hex()) for r in reports]

        score = coarsened_score(ref_model)
        assert hexes([clip_risk(ref_model, score, 4, 1100, seed=41)]) == [
            ("clip_risk", "0x1.45bdd5dc334a4p+1", "0x1.8f140d14d2015p-6")]
        assert hexes(clip_excess_and_mi_limit(ref_model, score, [2, 8], 1100, seed=42)) == [
            ("mi_limit", "0x1.16f0746e94b68p-3", "0x1.8b6c8be1d2681p-7"),
            ("clip_excess", "0x1.b8fc8a2425c02p-4", "0x1.e50e914728a3cp-7"),
            ("mi_limit", "0x1.fd68b6edc2688p-3", "0x1.1c71d75604562p-6"),
            ("clip_excess", "0x1.bdf174ac2c428p-3", "0x1.59fbdea3d2829p-6")]
        assert hexes(zsc_kl_sweep(ref_model, score, [4, 300], 700, seed=43)) == [
            ("zsc_kl", "0x1.5b88c7834cd5ep-2", "0x1.2a36c0641e019p-7"),
            ("zsc_kl", "0x1.52666381a1d08p-2", "0x1.0f9f2e503350fp-7")]
        encoder = coarsened_root_encoder(ref_model, "tx")
        assert hexes([cdm_estimation_error(ref_model, ref_table, encoder, t=0.7, n=2100, seed=44)]) == [
            ("cdm_estimation_error", "0x1.efce8962da5a3p-7", "0x1.2c402d89b6026p-11")]


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
        mi = mi_from_joint(ref_table.joint)
        reports = clip_excess_and_mi_limit(ref_model, constant_score(), [2, 8, 32, 128], 20_000, seed=5)
        mi_reports = [r for r in reports if r.name == "mi_limit"]
        ests = [r.estimate for r in mi_reports]
        ses = [r.se for r in mi_reports]
        for a, b, sa, sb in zip(ests, ests[1:], ses, ses[1:]):
            assert b >= a - 4 * (sa + sb)
        assert abs(ests[-1] - mi) <= max(0.02, 4 * ses[-1])

    def test_excess_tracks_sufficiency(self, ref_model, ref_table):
        suff = exact_suff_score(ref_table, coarsened_score(ref_model))
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
            lim = zsc_infinite_sample_predict(zsc_table, score, draws.x_im[k])
            mc = zsc_predict(zsc_model, score, draws.x_im[k], 4096, stream(11, "zsclim", k))
            assert 0.5 * np.abs(lim - mc).sum() <= 1e-2

    def test_kl_sweep_non_increasing(self, zsc_model):
        reports = zsc_kl_sweep(zsc_model, exact_score(zsc_model), [4, 16, 64, 256], 1500, seed=12)
        for a, b in zip(reports, reports[1:]):
            assert b.estimate <= a.estimate + 4 * (a.se + b.se)

    def test_exact_score_small_kl(self, zsc_model):
        r = zsc_kl_sweep(zsc_model, exact_score(zsc_model), [256], 1500, seed=13)[0]
        assert r.estimate <= 0.05

    def test_lossy_score_bounded_by_sufficiency(self, zsc_model, zsc_table):
        score = coarsened_score(zsc_model)
        suff = exact_suff_score(zsc_table, score)
        r = zsc_kl_sweep(zsc_model, score, [4096], 600, seed=14)[0]
        assert r.estimate <= suff + 0.02

    @pytest.mark.parametrize("M_list, message", [
        ([], "needs a non-empty M_list"),
        ([0], r"M_list\[0\] must be an integer >= 1, got 0"),
        ([4, -1], r"M_list\[1\] must be an integer >= 1, got -1"),
        ([2.5], r"M_list\[0\] must be an integer >= 1, got 2\.5"),
        ([True], r"M_list\[0\] must be an integer >= 1, got True"),
        ([4, "8"], r"M_list\[1\] must be an integer >= 1, got '8'"),
    ], ids=["empty", "zero", "negative", "float", "bool", "string"])
    def test_kl_sweep_names_a_bad_m(self, ref_model, M_list, message):
        with pytest.raises(ModelError, match=message):
            zsc_kl_sweep(ref_model, exact_score(ref_model), M_list, 10, seed=0)

    def test_kl_sweep_takes_numpy_integers(self, ref_model):
        score = exact_score(ref_model)
        assert zsc_kl_sweep(ref_model, score, np.array([2, 3]), 10, seed=0) == \
            zsc_kl_sweep(ref_model, score, [2, 3], 10, seed=0)

    def test_kl_grows_with_mixing(self):
        # low mixing: text pins the root and the classifier is near exact
        topo = reference_topology()
        results = []
        for p in (0.02, 0.4):
            m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p, seed=8))
            results.append(zsc_kl_sweep(m, exact_score(m), [16], 1_500, seed=15)[0])
        low, high = results
        assert low.estimate < high.estimate - 4 * (low.se + high.se)


class TestCdm:
    def test_exact_encoder_zero_error(self, ref_model, ref_table):
        r = cdm_estimation_error(ref_model, ref_table, canonical_encoder(ref_model, "tx"), t=1.0,
                                 n=2_000, seed=15)
        assert r.estimate <= 4 * r.se + 1e-12

    def test_coarsened_encoder_within_bound(self, ref_model, ref_table):
        r = cdm_estimation_error(ref_model, ref_table, coarsened_root_encoder(ref_model, "tx"), t=1.0,
                                 n=4_000, seed=16)
        assert r.metadata["suff"] > 0
        assert r.estimate <= r.metadata["bound"] + 4 * r.se

    def test_constant_encoder_against_oracle_route(self, ref_model, ref_table):
        """Same functional, two routes: message passing vs pure enumeration."""
        r = cdm_estimation_error(ref_model, ref_table, constant_encoder(ref_model, "tx"), t=1.0,
                                 n=4_000, seed=17)
        x_all = ref_table.tuples_im.astype(float)
        rng = stream(18, "cdm-oracle")
        n = 4_000
        errs = np.empty(n)
        draws = sample_joint_batch(ref_model, n, rng)
        g = rng.standard_normal((n, 4))
        z = draws.x_im + g  # t = 1
        for k in range(n):
            m_star = exact_denoiser(ref_table, z[k], 1.0, draws.x_tx[k])
            logw = np.log(ref_table.p_im) - np.sum((z[k] - x_all) ** 2, axis=1) / 2.0
            w = np.exp(logw - logw.max())
            w /= w.sum()
            errs[k] = np.mean((m_star - w @ x_all) ** 2)
        se = errs.std(ddof=1) / np.sqrt(n)
        assert abs(r.estimate - errs.mean()) <= 4 * (r.se + se)

    def test_permutation_model_exact_encoder_zero_error(self, perm_model, perm_table):
        r = cdm_estimation_error(perm_model, perm_table, canonical_encoder(perm_model, "tx"), t=1.0,
                                 n=500, seed=19)
        assert r.estimate == 0.0 and r.metadata["suff"] == 0.0


class TestVlm:
    def test_exact_encoder_zero(self, ref_model, ref_table):
        r = vlm_divergence(ref_table, canonical_encoder(ref_model, "im"))
        assert 0 <= r.estimate <= 1e-9

    def test_divergence_equals_sufficiency(self, ref_model, ref_table):
        for enc in (coarsened_root_encoder(ref_model, "im"), constant_encoder(ref_model, "im")):
            r = vlm_divergence(ref_table, enc)
            assert r.estimate <= r.metadata["suff"] + 1e-9
            assert r.estimate == pytest.approx(r.metadata["suff"], abs=1e-9)

    def test_permutation_model_divergence_equals_sufficiency(self, perm_model, perm_table):
        for enc in (canonical_encoder(perm_model, "im"), coarsened_root_encoder(perm_model, "im"),
                    constant_encoder(perm_model, "im")):
            r = vlm_divergence(perm_table, enc)
            assert r.estimate == pytest.approx(r.metadata["suff"], abs=1e-12)
        assert r.estimate == pytest.approx(np.log(3), abs=1e-12)

    def test_constant_encoder_against_direct_enumeration(self, ref_model, ref_table):
        r = vlm_divergence(ref_table, constant_encoder(ref_model, "im"))
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
                    mu_true = exact_next_token(ref_table, x_im, x_tx[:pos])
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
