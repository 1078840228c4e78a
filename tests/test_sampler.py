import hashlib
import itertools

import numpy as np
import pytest
from scipy import stats

from jghm import (
    ModelError,
    ModelGenSpec,
    TreeTopology,
    make_pflip_model,
    noise_image,
    sample_joint,
    sample_joint_batch,
    sample_text_for_class,
    stream,
)
from jghm.oracle import encode_leaves, enumerate_joint
from jghm.presets import large_scale_topology, reference_topology
from jghm.sampler import _sample_tree, sample_contrastive_rows, sample_marginal_leaves
from test_model import uniform_model

ALPHA = 1e-6  # chi-square flake threshold; draws are seeded, so deterministic


class TestSampleJoint:
    def test_determinism(self, ref_model):
        a = sample_joint_batch(ref_model, 50, stream(5, "det"))
        b = sample_joint_batch(ref_model, 50, stream(5, "det"))
        assert np.array_equal(a.root, b.root)
        assert np.array_equal(a.x_im, b.x_im)
        assert np.array_equal(a.x_tx, b.x_tx)

    def test_p_zero_leaves_determined_by_root(self, perm_model, perm_table):
        draws = sample_joint_batch(perm_model, 200, stream(1, "p0"))
        for s in range(1, 4):
            rows = draws.x_im[draws.root == s]
            if len(rows):
                assert np.all(rows == rows[0])
        # and they match the single positive-mass column of the table
        idx = encode_leaves(draws.x_im, 3)
        assert np.all(perm_table.cond_im[draws.root - 1, idx] == 1.0)

    def test_uniform_model_leaf_marginal(self):
        m = uniform_model()
        n = 100_000
        draws = sample_joint_batch(m, n, stream(2, "uni"))
        p = 1.0 / 3.0
        tol = 4 * np.sqrt(p * (1 - p) / n)
        for s in range(1, 4):
            freq = (draws.x_im == s).mean(axis=0)
            assert np.all(np.abs(freq - p) <= tol)

    def test_root_marginal_matches_prior(self, ref_model):
        n = 100_000
        draws = sample_joint_batch(ref_model, n, stream(3, "roots"))
        prior = ref_model.root_prior
        tol = 4 * np.sqrt(prior * (1 - prior) / n)
        freq = np.array([(draws.root == s + 1).mean() for s in range(3)])
        assert np.all(np.abs(freq - prior) <= tol)

    def test_joint_frequency_matches_oracle(self, micro):
        table = enumerate_joint(micro)
        n = 100_000
        draws = sample_joint_batch(micro, n, stream(4, "joint"))
        idx = encode_leaves(draws.x_im, 2) * 2 + encode_leaves(draws.x_tx, 2)
        counts = np.bincount(idx, minlength=4) / n
        expected = table.joint.reshape(-1)
        tol = 4 * np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(counts - expected) <= tol)

    def test_modalities_conditionally_independent_given_root(self, micro):
        table = enumerate_joint(micro)
        n = 60_000
        draws = sample_joint_batch(micro, n, stream(5, "ci"))
        for s in (1, 2):
            sel = draws.root == s
            obs = np.zeros((2, 2))
            for a in (1, 2):
                for b in (1, 2):
                    obs[a - 1, b - 1] = np.sum(sel & (draws.x_im[:, 0] == a) & (draws.x_tx[:, 0] == b))
            _, p, _, _ = stats.chi2_contingency(obs + 0.5)
            assert p > ALPHA

    def test_single_sample_shape(self, ref_model):
        s = sample_joint(ref_model, stream(6, "one"))
        assert s.x_im.shape == (4,) and s.x_tx.shape == (4,)
        assert 1 <= s.root <= 3
        assert s.levels_im[0].shape == (2,)


def _per_rank_tree(model, modality, roots, rng):
    """Reference ancestral pass: one cumsum-and-compare draw per rank and
    level, ranks in order, each kernel row gathered per parent."""
    levels = []
    parents = roots[:, None]
    for level_kernels in model.kernels(modality):
        B, n_prev = parents.shape
        children = np.empty((B, n_prev, len(level_kernels)), dtype=np.int64)
        for j, kernel in enumerate(level_kernels):
            rows = kernel[(parents - 1).reshape(-1)]
            u = rng.random(rows.shape[0])
            idx = np.minimum((u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1), rows.shape[1] - 1)
            children[:, :, j] = idx.reshape(B, n_prev) + 1
        parents = children.reshape(B, -1)
        levels.append(parents)
    return tuple(levels)


PER_RANK_TOPOLOGIES = {
    "reference": reference_topology(),
    "large": large_scale_topology(),
    "mixed": TreeTopology(depth=3, m_im=(1, 3, 2), m_tx=(2, 1, 1), n_states=4),
    "S2": TreeTopology(depth=2, m_im=(2, 3), m_tx=(3, 1), n_states=2),
}


@pytest.mark.parametrize("topology, p_flip", [
    pytest.param(topology, p_flip, id=name if p_flip == 0.3 else f"{name}-p{p_flip:g}")
    for name, topology in PER_RANK_TOPOLOGIES.items() for p_flip in (0.3, 0.0, 1.0)
])
def test_table_sampler_matches_per_rank_loop(topology, p_flip):
    model = make_pflip_model(ModelGenSpec(topology=topology, p_flip=p_flip, seed=7))
    roots = stream(1, "plan-roots").integers(1, topology.n_states + 1, size=300)
    for modality in ("im", "tx"):
        got = _sample_tree(model, modality, roots, stream(2, "plan", modality))
        want = _per_rank_tree(model, modality, roots, stream(2, "plan", modality))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


PIN_TOPOLOGIES = [
    reference_topology(),
    large_scale_topology(),
    TreeTopology(depth=3, m_im=(1, 3, 2), m_tx=(2, 1, 1), n_states=4),
    TreeTopology(depth=2, m_im=(2, 3), m_tx=(3, 1), n_states=2),
    TreeTopology(depth=1, m_im=(3,), m_tx=(2,), n_states=5),
]


def test_draw_bits_pinned():
    """Dtype, shape and bytes of every public sampler's output over five
    topologies, p_flip in (0, 0.05, 0.3, 1), two kernel noise scales and
    batch sizes 0 to 333, each grid point drawing all of them from one
    generator in turn. A change of the draw rule must leave every byte and
    the order of the uniforms as they are (digest taken at b22f476)."""
    h = hashlib.sha256()

    def update(a):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    for (i, topo), p_flip, scale, size in itertools.product(
            enumerate(PIN_TOPOLOGIES), (0.0, 0.05, 0.3, 1.0), (1.0, 8.0), (0, 1, 7, 333)):
        model = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p_flip, seed=11,
                                              gaussian_scale=scale))
        rng = stream(47, "draw-pin", i, str(p_flip), str(scale), size)
        joint = sample_joint_batch(model, size, rng)
        for a in (joint.root, *joint.levels_im, *joint.levels_tx):
            update(a)
        for modality in ("im", "tx"):
            update(sample_marginal_leaves(model, modality, size, rng))
        for a in sample_contrastive_rows(model, 3, size, rng):
            update(a)
        for y in range(1, topo.n_states + 1):
            update(sample_text_for_class(model, y, rng, size))
    assert h.hexdigest() == "5b19a3b254696de898ac345f3a7db99b9a28fc82410c6fca8e5c7e733af13c27"


class TestContrastiveBatch:
    def test_k2_has_one_negative(self, ref_model):
        images, texts = sample_contrastive_rows(ref_model, 2, 1, stream(7, "k2"))
        assert images.shape == (1, 2, 4) and texts.shape == (1, 2, 4)

    def test_k_below_two_rejected(self, ref_model):
        with pytest.raises(ModelError):
            sample_contrastive_rows(ref_model, 1, 1, stream(7, "k1"))

    def test_negative_sides_independent(self, ref_model):
        # first leaf of the negative image against first leaf of the negative text
        n = 30_000
        images, texts = sample_contrastive_rows(ref_model, 2, n, stream(8, "indep"))
        obs = np.zeros((3, 3))
        np.add.at(obs, (images[:, 1, 0] - 1, texts[:, 1, 0] - 1), 1)
        _, p, _, _ = stats.chi2_contingency(obs)
        assert p > ALPHA

    def test_negative_marginal_matches_positive(self, ref_model):
        n = 30_000
        images, _ = sample_contrastive_rows(ref_model, 2, n, stream(9, "marg"))
        pos, neg = images[:, 0, 0], images[:, 1, 0]
        obs = np.stack([np.bincount(pos, minlength=4)[1:], np.bincount(neg, minlength=4)[1:]])
        _, p, _, _ = stats.chi2_contingency(obs)
        assert p > ALPHA


class TestNoiseImage:
    def test_t_zero_is_zero(self):
        x = np.array([1, 2, 3])
        out = noise_image(x, 0.0, stream(1, "nz"))
        assert np.array_equal(out.z, np.zeros(3)) and out.t == 0.0

    def test_injected_noise_hook(self):
        x = np.array([1, 3, 2])
        out = noise_image(x, 1.0, None, g=np.zeros(3))
        assert np.array_equal(out.z, x.astype(float))

    def test_mean_converges_to_signal(self):
        x = np.array([2, 1, 3, 1])
        t, n = 4.0, 10_000
        rng = stream(2, "nzmean")
        zs = np.stack([noise_image(x, t, rng).z for _ in range(n)])
        tol = 4 / np.sqrt(t * n)
        assert np.max(np.abs(zs.mean(axis=0) / t - x)) <= tol

    def test_negative_time_rejected(self):
        with pytest.raises(ModelError):
            noise_image(np.array([1]), -0.5, stream(0, "bad"))

    @pytest.mark.parametrize("x_im, got", [
        ([1.5], "dtype float64"), (["a"], "dtype <U1"), ([True], "dtype bool"),
        ([2, 0], "state 0"), ([[1, 3], [-2, 1]], "state -2"),
    ], ids=["float", "str", "bool", "state-0", "negative-state"])
    def test_non_state_image_rejected(self, x_im, got):
        with pytest.raises(ModelError, match=f"image must be an integer array of states >= 1, got {got}"):
            noise_image(np.array(x_im), 1.0, stream(0, "bad"))


class TestTextForClass:
    def test_p_zero_text_is_deterministic(self, perm_model):
        rng = stream(3, "cls")
        texts = sample_text_for_class(perm_model, 2, rng, size=20)
        assert np.all(texts == texts[0])

    def test_conditional_frequencies_match_oracle(self, ref_model, ref_table):
        n = 60_000
        y = 1
        texts = sample_text_for_class(ref_model, y, stream(4, "clsfreq"), size=n)
        idx = encode_leaves(texts, 3)
        counts = np.bincount(idx, minlength=81) / n
        expected = ref_table.cond_tx[y - 1]
        tol = 4 * np.sqrt(expected * (1 - expected) / n) + 1e-12
        assert np.all(np.abs(counts - expected) <= tol)

    def test_out_of_range_class(self, ref_model):
        with pytest.raises(ModelError):
            sample_text_for_class(ref_model, 4, stream(5, "bad"), size=1)
        with pytest.raises(ModelError):
            sample_text_for_class(ref_model, 0, stream(5, "bad"), size=1)

    @pytest.mark.parametrize("y", [1.5, 2.0, True, np.float64(2.7), "2", None])
    def test_class_that_is_not_an_integer_is_named(self, ref_model, y):
        with pytest.raises(ModelError, match=r"class y must be an integer in \[1, 3\]"):
            sample_text_for_class(ref_model, y, stream(5, "bad"), size=1)

    def test_numpy_integer_class(self, ref_model):
        a = sample_text_for_class(ref_model, np.int16(2), stream(5, "np"), size=6)
        b = sample_text_for_class(ref_model, 2, stream(5, "np"), size=6)
        assert np.array_equal(a, b)


SAMPLERS = {
    "joint": lambda model, size: sample_joint_batch(model, size, stream(5, "size")),
    "marginal": lambda model, size: sample_marginal_leaves(model, "tx", size, stream(5, "size")),
    "contrastive": lambda model, size: sample_contrastive_rows(model, 3, size, stream(5, "size")),
    "class": lambda model, size: sample_text_for_class(model, 2, stream(5, "size"), size),
}


@pytest.mark.parametrize("size", [-1, 2.5, 3.0, True, np.float64(2), "3", None])
@pytest.mark.parametrize("sampler", list(SAMPLERS), ids=list(SAMPLERS))
def test_size_that_is_not_a_count_is_named(ref_model, sampler, size):
    with pytest.raises(ModelError, match=r"size must be an integer >= 0"):
        SAMPLERS[sampler](ref_model, size)


@pytest.mark.parametrize("sampler", list(SAMPLERS), ids=list(SAMPLERS))
def test_numpy_and_zero_sizes(ref_model, sampler):
    def texts(size):
        out = SAMPLERS[sampler](ref_model, size)
        if sampler == "joint":
            return out.x_tx
        return out[1] if sampler == "contrastive" else out

    assert np.array_equal(texts(np.uint8(4)), texts(4))
    empty = texts(0)
    assert empty.shape[0] == 0 and empty.dtype == np.int64


@pytest.mark.parametrize("K", [2.0, 3.5, True, np.float64(3), None])
def test_contrastive_k_that_is_not_an_integer_is_named(ref_model, K):
    with pytest.raises(ModelError, match=r"needs an integer K >= 2"):
        sample_contrastive_rows(ref_model, K, 2, stream(5, "k"))
