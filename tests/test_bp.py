import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jghm import (
    ModelError,
    bayes_denoiser,
    conditioned_denoiser,
    downsweep,
    next_token_posterior_bp,
    next_token_posteriors_parallel,
    normalize,
    optimal_score,
    posterior_floor,
    readout_bound,
    root_posterior,
    sample_joint,
    sample_joint_batch,
    stream,
    text_log_likelihood,
    upsweep,
)
from jghm import bp
from jghm.bp import _leaf_posteriors, evidence_from_states, leaf_evidence_from_noise, root_log_posterior
from jghm.model import ModelGenSpec, TreeTopology, make_pflip_model
from jghm.oracle import (
    all_leaf_tuples,
    config_count,
    encode_leaves,
    enumerate_joint,
    exact_conditional_root,
    exact_denoiser,
    exact_next_token,
)
from jghm.presets import diffusion_model, large_scale_topology, micro_model, reference_topology
from jghm.sampler import NoisyImage, sample_text_for_class
from test_model import uniform_model

finite_beliefs = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=2, max_size=6
).map(np.array)


class TestNormalize:
    def test_examples(self):
        assert np.array_equal(normalize(np.array([1.0, 3.0, 2.0])), [-2.0, 0.0, -1.0])
        assert np.array_equal(normalize(np.array([5.0, 5.0])), [0.0, 0.0])
        assert np.array_equal(normalize(np.array([-np.inf, 0.0])), [-np.inf, 0.0])

    def test_all_neg_inf_rejected(self):
        with pytest.raises(ModelError):
            normalize(np.array([-np.inf, -np.inf]))

    @given(finite_beliefs)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, b):
        once = normalize(b)
        assert np.array_equal(normalize(once), once)
        assert once.max() == 0.0


class TestNoiseEvidence:
    def test_quadratic_profile(self):
        ev = leaf_evidence_from_noise(np.array([2.0]), 1.0, 3)
        assert np.allclose(ev[0], [-0.5, 0.0, -0.5])

    def test_t_zero_uninformative(self):
        ev = leaf_evidence_from_noise(np.array([1.0, 7.0]), 0.0, 3)
        assert np.array_equal(ev, np.zeros((2, 3)))

    def test_large_t_is_peaked(self):
        ev = leaf_evidence_from_noise(np.array([200.0]), 100.0, 3)
        # neighboring states sit 50 log-units below the peak
        assert ev[0, 1] == 0.0 and np.all(ev[0, [0, 2]] == -50.0)
        p = np.exp(ev[0])
        assert p[1] / p.sum() >= 1 - 1e-15

    @pytest.mark.parametrize("t", [np.nan, np.inf, "x", True])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ModelError, match="time t"):
            leaf_evidence_from_noise(np.array([1.0]), t, 3)
        with pytest.raises(ModelError, match="time t"):
            NoisyImage(t=t, z=np.zeros(4))


class TestLeafPosteriors:
    @given(st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=12, max_size=12),
           st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_leaf_evidence_shift_invariance(self, ref_model, ev, shifts):
        ev = np.array(ev).reshape(4, 3)
        shifted = ev + np.array(shifts)[:, None]
        prior = ref_model.root_prior
        assert np.allclose(_leaf_posteriors(ref_model, "im", shifted, prior),
                           _leaf_posteriors(ref_model, "im", ev, prior), rtol=0, atol=1e-12)


class TestRootPosterior:
    def test_permutation_model_one_hot(self, perm_model):
        s = sample_joint(perm_model, stream(1, "onehot"))
        post = root_posterior(perm_model, "im", s.x_im)
        expected = np.zeros(3)
        expected[s.root - 1] = 1.0
        assert np.array_equal(post, expected)

    def test_constant_kernels_return_prior(self):
        m = uniform_model()
        post = root_posterior(m, "tx", np.array([1, 3, 2, 2]))
        assert np.allclose(post, m.root_prior, atol=1e-15)

    def test_matches_oracle(self, ref_model, ref_table):
        rng = stream(2, "post")
        for _ in range(10):
            s = sample_joint(ref_model, rng)
            for modality, leaves in (("im", s.x_im), ("tx", s.x_tx)):
                assert np.allclose(
                    root_posterior(ref_model, modality, leaves),
                    exact_conditional_root(ref_table, modality, leaves),
                    atol=1e-9,
                )

    @pytest.mark.parametrize("model", [
        micro_model(),
        diffusion_model(),
        make_pflip_model(ModelGenSpec(
            topology=TreeTopology(depth=1, m_im=(3,), m_tx=(2,), n_states=3), p_flip=0.4, seed=5)),
    ], ids=["m1", "m2", "m3"])
    def test_depth_one_matches_oracle_exhaustive(self, model):
        table = enumerate_joint(model)
        for modality in ("im", "tx"):
            leaves = table.tuples(modality)
            want = np.stack([exact_conditional_root(table, modality, x) for x in leaves])
            assert np.abs(root_posterior(model, modality, leaves) - want).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int32])
    def test_narrow_integer_leaves(self, ref_model, dtype):
        leaves = sample_joint_batch(ref_model, 20, stream(4, "dtype")).x_im
        assert np.array_equal(root_posterior(ref_model, "im", leaves.astype(dtype)),
                              root_posterior(ref_model, "im", leaves))

    def test_split_prior_is_none_times_prior(self, ref_model):
        leaves = sample_joint(ref_model, stream(3, "modes")).x_im
        ev = evidence_from_states(leaves, 3)
        split = np.exp(downsweep(ref_model, "im", ev, prior_mode="split").h[0][0])
        none = np.exp(downsweep(ref_model, "im", ev, prior_mode="none").h[0][0])
        weighted = none * ref_model.root_prior
        assert np.allclose(split / split.sum(), weighted / weighted.sum(), rtol=0, atol=1e-12)

    def test_posterior_floor_exhaustive(self, ref_model, ref_table):
        floor = posterior_floor(ref_model)
        assert floor > 0
        for modality in ("im", "tx"):
            post = root_posterior(ref_model, modality, ref_table.tuples(modality))
            assert post.min() >= floor

    def test_invalid_leaf_values(self, ref_model):
        with pytest.raises(ModelError):
            root_posterior(ref_model, "im", np.array([1, 2, 3, 4]))
        with pytest.raises(ModelError):
            root_posterior(ref_model, "im", np.array([1, 2, 3]))
        with pytest.raises(ModelError, match="integer"):
            root_posterior(ref_model, "im", np.array([[1.5, 2, 2, 1]]))
        with pytest.raises(ModelError, match="empty"):
            root_posterior(ref_model, "im", np.zeros((0, 4), dtype=int))
        s = sample_joint(ref_model, stream(4, "bad"))
        with pytest.raises(ModelError, match="integer"):
            next_token_posteriors_parallel(ref_model, s.x_im, s.x_tx.astype(float))
        with pytest.raises(ModelError, match="integer"):
            next_token_posterior_bp(ref_model, s.x_im, [1.7])

    def test_message_stacks_are_normalized(self, ref_model):
        ev = evidence_from_states(sample_joint(ref_model, stream(4, "stk")).x_im, 3)
        stack = downsweep(ref_model, "im", ev, prior_mode="none")
        for level in stack.h + stack.q:
            assert np.allclose(level.max(axis=-1), 0.0)
        up = upsweep(ref_model, "im", stack, np.log(ref_model.root_prior))
        assert len(up.b) == 3  # messages for levels 1..L, then leaf beliefs
        for level in up.b:
            assert np.allclose(level.max(axis=-1), 0.0)


class TestOptimalScore:
    def test_permutation_matched_pair(self):
        # S = 2, deterministic trees, uniform prior: matched roots give log 2
        m = diffusion_model(p_flip=0.0)
        s = sample_joint(m, stream(5, "sc"))
        assert optimal_score(m, s.x_im, s.x_tx) == pytest.approx(np.log(2))

    def test_permutation_mismatched_pair(self):
        m = diffusion_model(p_flip=0.0)
        rng = stream(6, "sc2")
        a = sample_joint(m, rng)
        while True:
            b = sample_joint(m, rng)
            if b.root != a.root:
                break
        assert optimal_score(m, a.x_im, b.x_tx) == -np.inf
        assert optimal_score(m, a.x_im, b.x_tx, clamp=5.0) == -5.0

    def test_score_identity_exhaustive(self, micro):
        table = enumerate_joint(micro)
        tuples_im, tuples_tx = table.tuples_im, table.tuples_tx
        for i in range(len(tuples_im)):
            for j in range(len(tuples_tx)):
                if table.joint[i, j] <= 0:
                    continue
                sc = optimal_score(micro, tuples_im[i], tuples_tx[j])
                lhs = np.exp(sc) * table.p_im[i] * table.p_tx[j]
                assert lhs == pytest.approx(table.joint[i, j], rel=1e-9)

    def test_score_bound_exhaustive(self, ref_model, ref_table):
        bound = 2 * ref_model.topology.m_first * np.log(ref_model.b_psi())
        n_im, n_tx = len(ref_table.tuples_im), len(ref_table.tuples_tx)
        im = np.repeat(ref_table.tuples_im, n_tx, axis=0)
        tx = np.tile(ref_table.tuples_tx, (n_im, 1))
        scores = optimal_score(ref_model, im, tx)
        assert np.all(np.abs(scores) <= bound)
        assert readout_bound(ref_model) == pytest.approx(2 * bound)


class TestDenoiser:
    def test_matches_oracle_random_times(self, ref_model, ref_table):
        rng = stream(7, "den")
        for _ in range(6):
            s = sample_joint(ref_model, rng)
            t = float(rng.uniform(0.1, 5.0))
            z = t * s.x_im + np.sqrt(t) * rng.standard_normal(4)
            got = bayes_denoiser(ref_model, NoisyImage(t=t, z=z), s.x_tx)
            want = exact_denoiser(ref_model, z, t, s.x_tx, ref_table)
            assert np.allclose(got, want, atol=1e-8)
            assert np.all((got >= 1) & (got <= 3))

    def test_bound_denoiser_equals_fresh_calls(self, ref_model):
        rng = stream(6, "bound")
        s = sample_joint(ref_model, rng)
        denoise = conditioned_denoiser(ref_model, s.x_tx)
        for t in (0.0, 0.3, 2.0):
            noisy = NoisyImage(t=t, z=rng.standard_normal((5, 4)) + t * s.x_im)
            assert np.array_equal(denoise(noisy), bayes_denoiser(ref_model, noisy, s.x_tx))

    def test_huge_time_recovers_image(self, ref_model):
        rng = stream(8, "den2")
        s = sample_joint(ref_model, rng)
        t = 1e6
        z = t * s.x_im + np.sqrt(t) * rng.standard_normal(4)
        got = bayes_denoiser(ref_model, NoisyImage(t=t, z=z), s.x_tx)
        assert np.max(np.abs(got - s.x_im)) < 1e-3

    def test_t_zero_is_conditional_mean(self, ref_model, ref_table):
        s = sample_joint(ref_model, stream(9, "den3"))
        got = bayes_denoiser(ref_model, NoisyImage(t=0.0, z=np.zeros(4)), s.x_tx)
        want = exact_denoiser(ref_model, np.zeros(4), 0.0, s.x_tx, ref_table)
        assert np.allclose(got, want, atol=1e-8)

    def test_constant_kernels_marginal_mean(self):
        # leaves carry no signal: every coordinate is the mean state
        m = uniform_model()
        got = bayes_denoiser(m, NoisyImage(t=0.0, z=np.zeros(4)), np.array([1, 2, 3, 1]))
        assert np.allclose(got, 2.0, atol=1e-12)

    def test_batched_broadcasting(self, ref_model, ref_table):
        rng = stream(10, "den4")
        s = sample_joint(ref_model, rng)
        t = 1.3
        z = t * s.x_im + np.sqrt(t) * rng.standard_normal((5, 4))
        got = bayes_denoiser(ref_model, NoisyImage(t=t, z=z), s.x_tx)
        assert got.shape == (5, 4)
        for k in range(5):
            assert np.allclose(got[k], exact_denoiser(ref_model, z[k], t, s.x_tx, ref_table), atol=1e-8)

    def test_noise_evidence_normalized_once_per_call(self, ref_model, monkeypatch):
        s = sample_joint(ref_model, stream(11, "den5"))
        noisy = NoisyImage(t=0.8, z=stream(11, "den5z").standard_normal((3, 4)))
        want = bayes_denoiser(ref_model, noisy, s.x_tx)
        denoise = conditioned_denoiser(ref_model, s.x_tx)
        calls = []
        monkeypatch.setattr(bp, "normalize", lambda b: calls.append(b.shape) or normalize(b))
        assert np.array_equal(denoise(noisy), want)
        assert calls == [(3, 4, 3)]


class TestNextToken:
    def test_permutation_one_hot(self, perm_model):
        s = sample_joint(perm_model, stream(11, "nt"))
        for i in range(4):
            post = next_token_posterior_bp(perm_model, s.x_im, s.x_tx[:i])
            assert post[s.x_tx[i] - 1] == pytest.approx(1.0)

    def test_matches_oracle_all_prefixes(self, ref_model, ref_table):
        rng = stream(12, "nt2")
        for _ in range(5):
            s = sample_joint(ref_model, rng)
            for i in range(4):
                got = next_token_posterior_bp(ref_model, s.x_im, s.x_tx[:i])
                want = exact_next_token(ref_model, s.x_im, s.x_tx[:i], ref_table)
                assert np.allclose(got, want, atol=1e-9)
                assert got.sum() == pytest.approx(1.0)

    def test_constant_leaf_kernels_ignore_context(self):
        # iid leaves: posterior equals the constant emission row everywhere
        topo = reference_topology()
        base = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.6, seed=21))
        row = np.array([0.5, 0.2, 0.3])
        const = np.tile(row, (3, 1))
        from jghm.model import JghmModel

        m = JghmModel(
            topology=topo,
            root_prior=base.root_prior,
            kernels_im=base.kernels_im,
            kernels_tx=(base.kernels_tx[0], (const, const)),
        )
        s = sample_joint(m, stream(13, "nt3"))
        for i in range(4):
            post = next_token_posterior_bp(m, s.x_im, s.x_tx[:i])
            assert np.allclose(post, row, atol=1e-12)

    def test_prefix_too_long(self, ref_model):
        s = sample_joint(ref_model, stream(14, "nt4"))
        with pytest.raises(ModelError):
            next_token_posterior_bp(ref_model, s.x_im, s.x_tx)

    def test_parallel_equals_sequential(self, ref_model):
        rng = stream(15, "par")
        for _ in range(5):
            s = sample_joint(ref_model, rng)
            par = next_token_posteriors_parallel(ref_model, s.x_im, s.x_tx)
            assert par.shape == (4, 3)
            for i in range(4):
                seq = next_token_posterior_bp(ref_model, s.x_im, s.x_tx[:i])
                assert np.max(np.abs(par[i] - seq)) <= 1e-12

    def test_parallel_batched(self, ref_model):
        draws = sample_joint_batch(ref_model, 7, stream(16, "parb"))
        par = next_token_posteriors_parallel(ref_model, draws.x_im, draws.x_tx)
        assert par.shape == (7, 4, 3)
        for b in range(7):
            single = next_token_posteriors_parallel(ref_model, draws.x_im[b], draws.x_tx[b])
            assert np.allclose(par[b], single, atol=1e-15)

    def test_single_token_tree_uses_first_token_formula(self):
        topo = TreeTopology(depth=1, m_im=(2,), m_tx=(1,), n_states=2)
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.4, seed=2))
        s = sample_joint(m, stream(17, "单"))
        par = next_token_posteriors_parallel(m, s.x_im, s.x_tx)
        table = enumerate_joint(m)
        want = exact_next_token(m, s.x_im, [], table)
        assert par.shape == (1, 2)
        assert np.allclose(par[0], want, atol=1e-12)

    def test_parallel_permutation_one_hot(self, perm_model):
        s = sample_joint(perm_model, stream(18, "par0"))
        par = next_token_posteriors_parallel(perm_model, s.x_im, s.x_tx)
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), s.x_tx - 1] = 1.0
        assert np.array_equal(par, onehot)


def retired_next_token_posteriors(model, x_im, x_tx):
    """The d_tx-row teacher-forced pass that the complete-message pass
    replaced, kept as its reference. Every level holds one row per leaf v,
    standing for v's level-l ancestor. Down, Q is the ancestor's message
    restricted to the observed leaves <= v and E the product of its earlier
    siblings' complete messages; up, D is the message from outside the
    ancestor's subtree given the image and the leaves before v."""

    def by_rank(x, blocks, stride):
        # row r belongs to child rank (r // stride) % m
        S = x.shape[-1]
        m = blocks.shape[0] // S
        grouped = x.reshape(x.shape[:-2] + (-1, m, stride, S)).swapaxes(-3, -2)
        out = grouped.reshape(-1, m * S) @ blocks
        return out.reshape(grouped.shape).swapaxes(-3, -2).reshape(x.shape)

    topo = model.topology
    x_tx = bp._check_leaves(model, "tx", x_tx)
    S, d, L, ms = topo.n_states, topo.d_tx, topo.depth, topo.m_tx
    plan = model.plan_tx
    strides = [int(np.prod(ms[level:], dtype=np.int64)) for level in range(L + 1)]
    img_post = root_posterior(model, "im", x_im)

    Es = [None] * (L + 1)
    Q = bp._leaf_gather(plan.columns[L - 1], x_tx)
    for level in range(L, 0, -1):
        m, stride = ms[level - 1], strides[level]
        if level < L:
            Q = by_rank(H, plan.down[level - 1], stride)
        grouped = Q.reshape(Q.shape[:-2] + (-1, m, stride, S))
        E = np.ones_like(grouped[..., -1:, :])
        np.cumprod(grouped[..., :-1, -1:, :], axis=-3, out=E[..., 1:, :, :])
        Es[level] = E
        if level > 1:
            H = (grouped * E).reshape(Q.shape)
            bp._rescale(H)

    lead = np.broadcast_shapes(img_post.shape[:-1], x_tx.shape[:-1])
    D = np.broadcast_to(img_post[..., None, :], lead + (d, S))
    for level in range(1, L + 1):
        m, stride = ms[level - 1], strides[level]
        D = (D.reshape(lead + (-1, m, stride, S)) * Es[level]).reshape(lead + (d, S))
        D = by_rank(D, plan.up[level - 1], stride)
        bp._rescale(D)
    return D


def next_token_or_error(f, model, x_im, x_tx):
    try:
        return f(model, x_im, x_tx)
    except ModelError:
        return None


class TestCompleteMessagePass:
    """next_token_posteriors_parallel (one row per node and level) against
    the retired one-row-per-leaf pass: the same values to 1e-14, the same
    exact zeros and the same inputs rejected."""

    TOPOLOGIES = {
        "large": large_scale_topology(),
        "reference": reference_topology(),
        "mixed": TreeTopology(depth=3, m_im=(2, 1, 2), m_tx=(1, 3, 2), n_states=4),
        "depth1": TreeTopology(depth=1, m_im=(3,), m_tx=(4,), n_states=3),
    }

    @staticmethod
    def assert_same(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got == 0, want == 0)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("name", TOPOLOGIES)
    @pytest.mark.parametrize("p_flip", [0.0, 0.3])
    def test_matches_retired_pass(self, name, p_flip):
        m = make_pflip_model(ModelGenSpec(topology=self.TOPOLOGIES[name], p_flip=p_flip, seed=7))
        for B in (1, 7, 96):
            draws = sample_joint_batch(m, B, stream(40, "complete", name, str(p_flip), B))
            x_im, x_tx = (draws.x_im[0], draws.x_tx[0]) if B == 1 else (draws.x_im, draws.x_tx)
            self.assert_same(next_token_posteriors_parallel(m, x_im, x_tx),
                             retired_next_token_posteriors(m, x_im, x_tx))
        # one image against five texts of its root class
        rng = stream(41, "complete", name, str(p_flip))
        s = sample_joint(m, rng)
        texts = sample_text_for_class(m, int(s.root), rng, size=5)
        got = next_token_posteriors_parallel(m, s.x_im, texts)
        assert got.shape == (5, m.topology.d_tx, m.n_states)
        self.assert_same(got, retired_next_token_posteriors(m, s.x_im, texts))

    @pytest.mark.parametrize("m_im, m_tx", [((2, 2), (3, 1)), ((2, 1), (1, 3)), ((1, 1, 2), (1, 3, 2))])
    def test_same_inputs_rejected(self, m_im, m_tx):
        # a permutation text tree under a noisy image tree: every image is
        # possible, and many texts are impossible, some only jointly
        topo = TreeTopology(depth=len(m_tx), m_im=m_im, m_tx=m_tx, n_states=2)
        rejected = 0
        for seed in range(4):
            m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.0, p_flip_im=0.3, seed=seed))
            for x_im in all_leaf_tuples(topo.d_im, 2):
                for x_tx in all_leaf_tuples(topo.d_tx, 2):
                    got = next_token_or_error(next_token_posteriors_parallel, m, x_im, x_tx)
                    want = next_token_or_error(retired_next_token_posteriors, m, x_im, x_tx)
                    assert (got is None) == (want is None)
                    if got is None:
                        rejected += 1
                    else:
                        self.assert_same(got, want)
        assert rejected > 0

    def test_jointly_impossible_text_is_not_rejected(self):
        # each level-1 subtree of the text is possible given the image, but
        # not all three together; no output row conditions on all of them
        topo = TreeTopology(depth=2, m_im=(2, 2), m_tx=(3, 1), n_states=2)
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.0, seed=4))
        table = enumerate_joint(m)
        x_im = table.tuples_im[np.argmax(table.p_im)]
        x_tx = np.array([1, 1, 2])
        assert table.p_tx[table.index("tx", x_tx)] == 0
        got = next_token_posteriors_parallel(m, x_im, x_tx)
        assert np.array_equal(got, [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        self.assert_same(got, retired_next_token_posteriors(m, x_im, x_tx))
        # the last token has probability 0, and so has the whole text
        assert -text_log_likelihood(m, x_im, x_tx) / 3 == np.inf
        # the up pass still rejects evidence impossible only at the root,
        # though no root product is formed on the way down
        with pytest.raises(ModelError):
            _leaf_posteriors(m, "tx", evidence_from_states(x_tx, 2), m.root_prior)


class TestTextLikelihood:
    """text_log_likelihood: log P(x_tx | x_im) from one scaled down pass."""

    @staticmethod
    def impossible_subtree(topo, table):
        """Per text tuple: whether the leaves under some level-1 node have
        zero marginal mass (a level-1 block of d_tx / m1 leaves)."""
        S, size = topo.n_states, topo.d_tx // topo.m_tx[0]
        flags = np.zeros(len(table.p_tx), dtype=bool)
        for lo in range(0, topo.d_tx, size):
            codes = encode_leaves(table.tuples_tx[:, lo:lo + size], S)
            flags |= np.bincount(codes, weights=table.p_tx, minlength=S**size)[codes] == 0
        return flags

    @pytest.mark.parametrize("name", ["reference", "mixed", "depth1"])
    @pytest.mark.parametrize("p_flip", [0.0, 0.3])
    def test_matches_oracle(self, name, p_flip):
        topo = TestCompleteMessagePass.TOPOLOGIES[name]
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p_flip, seed=7))
        table = enumerate_joint(m, budget=config_count(topo))
        flags = self.impossible_subtree(topo, table)
        assert flags.any() == (p_flip == 0 and name != "depth1")
        for x_tx in table.tuples_tx[flags]:
            # a level-1 text node has no possible state: both raise
            with pytest.raises(ModelError):
                text_log_likelihood(m, table.tuples_im[0], x_tx)
            with pytest.raises(ModelError):
                root_log_posterior(m, "tx", x_tx)
        for x_tx in table.tuples_tx[~flags & (table.p_tx == 0)]:
            # impossible only at the root: the posterior raises, and the
            # likelihood is -inf (below, since the joint column is 0)
            with pytest.raises(ModelError):
                root_log_posterior(m, "tx", x_tx)
        texts = table.tuples_tx[~flags]
        for i in np.flatnonzero(table.p_im > 0):
            got = text_log_likelihood(m, table.tuples_im[i], texts)
            with np.errstate(divide="ignore"):
                want = np.log(table.joint[i, ~flags] / table.p_im[i])
            assert np.array_equal(got == -np.inf, want == -np.inf)
            ok = want > -np.inf
            assert np.max(np.abs(got[ok] - want[ok]), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("p_flip", [0.05, 0.3])
    def test_large_scale_equals_next_token_nll(self, p_flip):
        m = make_pflip_model(ModelGenSpec(topology=large_scale_topology(), p_flip=p_flip, seed=11))
        d = m.topology.d_tx
        for B in (1, 7, 96):
            draws = sample_joint_batch(m, B, stream(42, "chain-rule", str(p_flip), B))
            x_im, x_tx = (draws.x_im[0], draws.x_tx[0]) if B == 1 else (draws.x_im, draws.x_tx)
            post = next_token_posteriors_parallel(m, x_im, x_tx)
            tok = np.take_along_axis(post, (x_tx - 1)[..., None], axis=-1)[..., 0]
            want = -np.log(tok).mean(axis=-1)
            got = -text_log_likelihood(m, x_im, x_tx) / d
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / want) <= 1e-14


class TestLargeScale:
    """BP stays exact and fast far beyond the enumeration budget."""

    def test_large_instance_consistency(self):
        from jghm.presets import large_scale_topology

        topo = large_scale_topology()
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=0))
        s = sample_joint(m, stream(19, "big"))
        post = root_posterior(m, "im", s.x_im)
        assert post.sum() == pytest.approx(1.0)
        assert post.min() >= posterior_floor(m)
        par = next_token_posteriors_parallel(m, s.x_im, s.x_tx)
        assert par.shape == (81, 10)
        for i in (0, 1, 40, 80):
            seq = next_token_posterior_bp(m, s.x_im, s.x_tx[:i])
            assert np.max(np.abs(par[i] - seq)) <= 1e-12
        z = 1.0 * s.x_im + stream(20, "bigz").standard_normal(81)
        den = bayes_denoiser(m, NoisyImage(t=1.0, z=z), s.x_tx)
        assert np.all((den >= 1) & (den <= 10))


class TestBpOracleSweep:
    """Exhaustive agreement on a battery of random models (the core check)."""

    @pytest.mark.parametrize("seed,p_flip", [(0, 0.15), (1, 0.4), (2, 0.8), (3, 1.0)])
    def test_all_quantities(self, seed, p_flip):
        topo = reference_topology()
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p_flip, seed=seed))
        table = enumerate_joint(m)
        rng = stream(seed, "sweep-check")
        for _ in range(3):
            s = sample_joint(m, rng)
            assert np.allclose(
                root_posterior(m, "im", s.x_im),
                exact_conditional_root(table, "im", s.x_im),
                atol=1e-9,
            )
            i, j = table.index("im", s.x_im), table.index("tx", s.x_tx)
            want = np.log(table.joint[i, j] / (table.p_im[i] * table.p_tx[j]))
            assert optimal_score(m, s.x_im, s.x_tx) == pytest.approx(want, abs=1e-9)
            t = float(rng.uniform(0.2, 3.0))
            z = t * s.x_im + np.sqrt(t) * rng.standard_normal(4)
            assert np.allclose(
                bayes_denoiser(m, NoisyImage(t=t, z=z), s.x_tx),
                exact_denoiser(m, z, t, s.x_tx, table),
                atol=1e-8,
            )
            for i_pre in range(4):
                assert np.allclose(
                    next_token_posterior_bp(m, s.x_im, s.x_tx[:i_pre]),
                    exact_next_token(m, s.x_im, s.x_tx[:i_pre], table),
                    atol=1e-9,
                )


class TestDeepTreeUnderflow:
    """Depth 8 (256 leaves per tree): per-node rescaling keeps every sweep
    finite and normalized, and exact zeros keep permutation models exact."""

    @staticmethod
    def deep_model(p_flip):
        topo = TreeTopology(depth=8, m_im=(2,) * 8, m_tx=(2,) * 8, n_states=4)
        return make_pflip_model(ModelGenSpec(topology=topo, p_flip=p_flip, seed=5))

    @pytest.mark.parametrize("p_flip", [0.0, 0.01, 0.3])
    def test_root_posterior_sums_to_one(self, p_flip):
        m = self.deep_model(p_flip)
        draws = sample_joint_batch(m, 16, stream(30, "deep", str(p_flip)))
        for modality in ("im", "tx"):
            post = root_posterior(m, modality, getattr(draws, f"x_{modality}"))
            assert np.all(np.isfinite(post))
            assert np.max(np.abs(post.sum(axis=-1) - 1.0)) <= 1e-12

    def test_permutation_model_exactly_one_hot(self):
        m = self.deep_model(0.0)
        draws = sample_joint_batch(m, 8, stream(31, "deep0"))
        eye = np.eye(4)
        assert np.array_equal(root_posterior(m, "im", draws.x_im), eye[draws.root - 1])
        assert np.array_equal(root_posterior(m, "tx", draws.x_tx), eye[draws.root - 1])
        par = next_token_posteriors_parallel(m, draws.x_im, draws.x_tx)
        assert np.array_equal(par, eye[draws.x_tx - 1])

    @pytest.mark.parametrize("p_flip", [0.01, 0.3])
    def test_next_token_rows_normalized(self, p_flip):
        m = self.deep_model(p_flip)
        s = sample_joint(m, stream(32, "deepnt", str(p_flip)))
        par = next_token_posteriors_parallel(m, s.x_im, s.x_tx)
        assert np.all(np.isfinite(par))
        assert np.max(np.abs(par.sum(axis=-1) - 1.0)) <= 1e-12
        for i in (0, 1, 127, 255):
            seq = next_token_posterior_bp(m, s.x_im, s.x_tx[:i])
            assert np.max(np.abs(par[i] - seq)) <= 1e-12

    @pytest.mark.parametrize("p_flip", [0.01, 0.3])
    @pytest.mark.parametrize("t", [1e-300, 1e6])
    def test_denoiser_extreme_time_and_noise(self, p_flip, t):
        m = self.deep_model(p_flip)
        rng = stream(33, "deepden", str(p_flip), str(t))
        draws = sample_joint_batch(m, 4, rng)
        z = np.concatenate([
            rng.uniform(-1e6, 1e6, (4, 256)),
            t * draws.x_im + np.sqrt(t) * rng.standard_normal((4, 256)),
            np.full((1, 256), 1e6),
            np.full((1, 256), -1e6),
        ])
        x_tx = np.concatenate([draws.x_tx, draws.x_tx, draws.x_tx[:2]])
        den = bayes_denoiser(m, NoisyImage(t=t, z=z), x_tx)
        assert den.shape == (10, 256)
        assert np.all(np.isfinite(den))
        assert np.all((den >= 1) & (den <= 4))
