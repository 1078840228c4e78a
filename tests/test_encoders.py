import numpy as np
import pytest

from jghm import clip_risk, root_posterior, sample_joint, sample_joint_batch, stream
from jghm.encoders import (
    Encoder,
    canonical_encoder,
    coarsened_root_encoder,
    constant_score,
    exact_score,
    prefix_text_encoder,
)
from jghm.model import ModelError
from test_model import uniform_model


class TestCanonicalEncoder:
    def test_permutation_scaled_one_hot(self, perm_model):
        s = sample_joint(perm_model, stream(1, "enc"))
        out = canonical_encoder(perm_model, "im")(s.x_im)
        expected = np.zeros(3)
        expected[s.root - 1] = 3.0  # P(s|x)/P(s) = 1 / (1/3)
        assert np.array_equal(out, expected)

    def test_constant_kernels_all_ones(self):
        m = uniform_model()
        out = canonical_encoder(m, "tx")(np.array([1, 2, 3, 1]))
        assert np.allclose(out, 1.0)

    def test_inner_product_recovers_score(self, ref_model):
        draws = sample_joint_batch(ref_model, 8, stream(2, "encip"))
        e_im = canonical_encoder(ref_model, "im")(draws.x_im)
        e_tx = canonical_encoder(ref_model, "tx")(draws.x_tx)
        inner = np.sum(e_im * e_tx * ref_model.root_prior, axis=-1)
        scores = exact_score(ref_model)(draws.x_im, draws.x_tx)
        assert np.allclose(inner, np.exp(scores), atol=1e-9)


class TestEncoderMechanics:
    def test_quantization(self):
        enc = Encoder(name="q", fn=lambda x: np.full(x.shape[:-1] + (1,), 0.123456), precision=2)
        assert enc(np.array([[1, 2]]))[0, 0] == 0.12

    def test_determinism(self, ref_model):
        enc = coarsened_root_encoder(ref_model, "im")
        x = np.array([[1, 2, 3, 1], [2, 2, 2, 2]])
        assert np.array_equal(enc(x), enc(x))

    def test_non_finite_output_rejected(self):
        for value in (np.nan, np.inf, -np.inf):
            enc = Encoder(name="bad", fn=lambda x, v=value: np.full(x.shape[:-1] + (1,), v))
            with pytest.raises(ModelError, match="encoder bad produced non-finite output"):
                enc(np.array([[1]]))

    def test_prefix_encoder_bounds(self, ref_model):
        with pytest.raises(ModelError):
            prefix_text_encoder(ref_model, 0)
        with pytest.raises(ModelError):
            prefix_text_encoder(ref_model, 5)
        enc = prefix_text_encoder(ref_model, 2)
        out = enc(np.array([1, 2, 3, 1]))
        assert out.shape == (3,) and out.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n_observed", [9, -1, 1.7, 2.0, True, "2", np.float64(2)])
    def test_prefix_encoder_named_error(self, ref_model, n_observed):
        """An n_observed out of range or not an integer is never truncated."""
        with pytest.raises(ModelError, match=r"n_observed must be an integer in \[1, 4\]"):
            prefix_text_encoder(ref_model, n_observed)

    def test_prefix_encoder_numpy_count(self, ref_model):
        enc = prefix_text_encoder(ref_model, np.int64(2))
        assert enc.name == "prefix-tx-2"
        x = np.array([1, 2, 3, 1])
        assert np.array_equal(enc(x), prefix_text_encoder(ref_model, 2)(x))

    def test_prefix_encoder_ignores_suffix(self, ref_model):
        enc = prefix_text_encoder(ref_model, 2)
        a = enc(np.array([1, 2, 3, 1]))
        b = enc(np.array([1, 2, 1, 3]))
        assert np.array_equal(a, b)


class TestScores:
    def test_exact_score_matches_bp(self, ref_model):
        draws = sample_joint_batch(ref_model, 6, stream(3, "sc"))
        sc = exact_score(ref_model)
        # log sum_s P[s | x_im] P[s | x_tx] / P[s], the PMI from the two root posteriors
        p_im = root_posterior(ref_model, "im", draws.x_im)
        p_tx = root_posterior(ref_model, "tx", draws.x_tx)
        assert np.allclose(
            sc(draws.x_im, draws.x_tx),
            np.log(np.sum(p_im * p_tx / ref_model.root_prior, axis=-1)),
            atol=1e-12,
        )

    def test_constant_score(self, ref_model):
        sc = constant_score(0.7)
        assert sc.model is None  # no posterior: evaluators use the exact value
        r = clip_risk(ref_model, sc, 4, 10, seed=0)
        assert r.estimate == 2 * np.log(4) and r.se == 0.0
        out = sc(np.array([[1, 1]]), np.array([[2, 2]]))
        assert out[0] == pytest.approx(0.7)

    def test_clamp(self, perm_model):
        rng = stream(4, "clamp")
        a = sample_joint(perm_model, rng)
        while True:
            b = sample_joint(perm_model, rng)
            if b.root != a.root:
                break
        sc = exact_score(perm_model, clamp=3.0)
        assert sc(a.x_im, b.x_tx) == -3.0

    def test_shared_posterior_features(self, ref_model):
        from jghm.bp import root_posterior

        score = exact_score(ref_model)
        draws = sample_joint_batch(ref_model, 5, stream(5, "fast"))
        post = root_posterior(ref_model, "im", draws.x_im)
        assert np.allclose(
            score.transform("im")(post),
            score.features("im", draws.x_im),
            atol=1e-15,
        )

    def test_bilinear_shapes(self, ref_model):
        score = exact_score(ref_model)
        f_im = score.features("im", np.array([[1, 2, 3, 1]]))
        f_tx = score.features("tx", np.array([[2, 2, 1, 3]]))
        assert score.from_features(f_im, f_tx).shape == (1,)
