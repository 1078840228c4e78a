import numpy as np
import pytest

from jghm import NoisyImage, conditioned_denoiser, sample_joint, stream
from jghm.diffusion import (
    TRAJ_CHUNK,
    SdeConfig,
    law_distance,
    round_to_states,
    sample_image_sde,
    sampled_law,
)
from jghm.model import ModelError
from jghm.oracle import encode_leaves, enumerate_joint
from jghm.presets import diffusion_model, reference_model


@pytest.fixture(scope="module")
def text(diff_model):
    return sample_joint(diff_model, stream(1, "sde-text")).x_tx


class TestConfig:
    def test_grid_must_divide(self):
        with pytest.raises(ModelError):
            SdeConfig(horizon=1.0, dt=0.3, n_paths=10, seed=0)
        cfg = SdeConfig(horizon=1.0, dt=0.25, n_paths=10, seed=0)
        assert cfg.n_steps == 4

    def test_positivity(self):
        with pytest.raises(ModelError):
            SdeConfig(horizon=-1.0, dt=0.1, n_paths=10, seed=0)
        with pytest.raises(ModelError):
            SdeConfig(horizon=1.0, dt=0.1, n_paths=0, seed=0)

    @pytest.mark.parametrize("horizon, dt, n_paths", [
        (float("nan"), 0.1, 10), (1.0, float("inf"), 10),
        (float("inf"), 0.1, 10), (True, 0.1, 10), (1.0, True, 10), ("1", 0.1, 10),
        (1.0, 0.1, 1.5), (1.0, 0.1, True), (1e308, 1e-10, 10),
        pytest.param(10**400, 1.0, 10, id="int-beyond-floats-1.0-10"),
    ])
    def test_rejected_grids(self, horizon, dt, n_paths):
        with pytest.raises(ModelError):
            SdeConfig(horizon=horizon, dt=dt, n_paths=n_paths, seed=0)

    @pytest.mark.parametrize("seed", [2.5, True, "0", None, 2**127, -2**127 - 1])
    def test_seed_that_is_not_a_stream_seed_is_named(self, seed):
        with pytest.raises(ModelError, match=r"seed must be an integer in \[-2\*\*127, 2\*\*127\)"):
            SdeConfig(horizon=1.0, dt=0.5, n_paths=2, seed=seed)

    def test_numpy_seed(self):
        assert SdeConfig(horizon=1.0, dt=0.5, n_paths=2, seed=np.int64(3)).seed == 3


class TestRounding:
    def test_examples(self):
        assert round_to_states(np.array([1.49]), 5)[0] == 1
        assert round_to_states(np.array([2.5]), 5)[0] == 2  # ties go down
        assert round_to_states(np.array([7.2]), 5)[0] == 5  # clamp
        assert round_to_states(np.array([-3.0]), 5)[0] == 1


class TestSde:
    def test_zero_drift_is_brownian(self, diff_model, text):
        cfg = SdeConfig(horizon=20.0, dt=0.01, n_paths=3000, seed=2)
        out = sample_image_sde(diff_model, text, cfg, drift_fn=lambda z, t: np.zeros_like(z))
        # Y_T / T ~ N(0, 1/T) per coordinate
        var = out.var(axis=0)
        se = (1 / 20.0) * np.sqrt(2.0 / (cfg.n_paths - 1))
        assert np.all(np.abs(var - 1 / 20.0) <= 4 * se)

    def test_reproducible_bitwise(self, diff_model, text):
        cfg = SdeConfig(horizon=2.0, dt=0.1, n_paths=64, seed=3)
        a = sample_image_sde(diff_model, text, cfg)
        b = sample_image_sde(diff_model, text, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", [diffusion_model(), reference_model()], ids=["diff", "ref"])
    def test_bound_drift_equals_public_denoiser_across_chunks(self, model):
        # TRAJ_CHUNK + 3 paths: a full chunk and a 3-path chunk with its own stream
        x_tx = sample_joint(model, stream(14, "sde-chunk")).x_tx
        cfg = SdeConfig(horizon=0.6, dt=0.2, n_paths=TRAJ_CHUNK + 3, seed=14)
        denoise = conditioned_denoiser(model, x_tx)
        public = sample_image_sde(model, x_tx, cfg, drift_fn=lambda z, t: denoise(NoisyImage(t=t, z=z)))
        assert np.array_equal(sample_image_sde(model, x_tx, cfg), public)
        tail = SdeConfig(horizon=0.6, dt=0.2, n_paths=3, seed=14)
        assert not np.array_equal(public[-3:], sample_image_sde(model, x_tx, tail))

    def test_drift_output_not_mutated(self, diff_model, text):
        drift = np.array([0.25, -0.5])
        seen = []

        def drift_fn(z, t):
            seen.append(z.copy())
            return drift

        cfg = SdeConfig(horizon=0.3, dt=0.1, n_paths=5, seed=15)
        out = sample_image_sde(diff_model, text, cfg, drift_fn=drift_fn)
        assert np.array_equal(drift, [0.25, -0.5])
        assert len(seen) == 3 and np.array_equal(seen[0], np.zeros((5, 2)))
        noise = stream(15, "sde-noise", 0).standard_normal((5, 2))
        assert np.array_equal(seen[1], np.zeros((5, 2)) + drift * cfg.dt + np.sqrt(cfg.dt) * noise)
        assert out.shape == (5, 2)

    def test_drift_model_of_another_image_size_rejected(self, diff_model, text):
        cfg = SdeConfig(horizon=0.2, dt=0.1, n_paths=2, seed=16)
        with pytest.raises(ModelError, match="image leaves"):
            sample_image_sde(diff_model, text, cfg, drift_model=reference_model())

    def test_short_horizon_mean_matches_conditional_mean(self, diff_model, text):
        # one tiny step: output ~ m_0 + noise/sqrt(T); mean -> E[x_im | x_tx]
        table = enumerate_joint(diff_model)
        j = table.index("tx", text)
        cond = table.joint[:, j] / table.joint[:, j].sum()
        target = cond @ table.tuples_im.astype(float)
        cfg = SdeConfig(horizon=0.05, dt=0.05, n_paths=10_000, seed=4)
        out = sample_image_sde(diff_model, text, cfg)
        se = out.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        assert np.all(np.abs(out.mean(axis=0) - target) <= 4 * se)

    def test_permutation_model_recovers_exact_image(self):
        # conditional is a point mass plus ~N(0, 1/T) terminal noise; the
        # 1e-3 rounding-error budget needs 0.5 * sqrt(T) >= 3.3, i.e. T ~ 50
        m = diffusion_model(p_flip=0.0)
        s = sample_joint(m, stream(5, "sde-p0"))
        cfg = SdeConfig(horizon=50.0, dt=0.01, n_paths=2_000, seed=6)
        out = round_to_states(sample_image_sde(m, s.x_tx, cfg), 2)
        err_rate = np.mean(np.any(out != s.x_im, axis=1))
        assert err_rate <= 1e-3


def _tv(model, text, cfg, drift_model=None):
    """TV between the rounded SDE law and the exact conditional, with its bootstrap se."""
    return law_distance(*sampled_law(model, text, cfg, drift_model), cfg, drift_model)


class TestLawDistance:
    def test_exact_drift_small_tv(self, diff_model, text):
        cfg = SdeConfig(horizon=20.0, dt=0.01, n_paths=4_000, seed=7)
        rep = _tv(diff_model, text, cfg)
        assert rep.estimate <= 0.05
        assert rep.se > 0

    def test_longer_horizon_not_worse(self, diff_model, text):
        short = _tv(diff_model, text, SdeConfig(horizon=16.0, dt=0.02, n_paths=3_000, seed=8))
        long = _tv(diff_model, text, SdeConfig(horizon=32.0, dt=0.02, n_paths=3_000, seed=9))
        assert long.estimate <= short.estimate + 4 * (short.se + long.se)

    def test_halved_step_consistent(self, diff_model, text):
        coarse = _tv(diff_model, text, SdeConfig(horizon=16.0, dt=0.02, n_paths=3_000, seed=10))
        fine = _tv(diff_model, text, SdeConfig(horizon=16.0, dt=0.01, n_paths=3_000, seed=11))
        assert abs(fine.estimate - coarse.estimate) <= 4 * (coarse.se + fine.se)

    def test_misspecified_drift_larger_tv(self, text):
        test_model = diffusion_model(p_flip=0.35)
        train_model = diffusion_model(p_flip=0.9)
        cfg = SdeConfig(horizon=20.0, dt=0.02, n_paths=4_000, seed=12)
        exact = _tv(test_model, text, cfg)
        wrong = _tv(test_model, text, cfg, drift_model=train_model)
        assert wrong.estimate > exact.estimate + 4 * (exact.se + wrong.se)
        assert wrong.metadata["drift"] == "misspecified"

    def test_histogram_mass_sums_to_one(self, diff_model, text):
        cfg = SdeConfig(horizon=16.0, dt=0.02, n_paths=500, seed=13)
        out = round_to_states(sample_image_sde(diff_model, text, cfg), 2)
        counts = np.bincount(encode_leaves(out, 2), minlength=4)
        assert counts.sum() == cfg.n_paths
