import ast
import hashlib
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import jghm
from jghm import sample_joint_batch, stream
from jghm.bp import next_token_posterior_bp
from jghm.encoders import (
    canonical_encoder,
    coarsened_root_encoder,
    constant_encoder,
    constant_score,
    exact_score,
    prefix_text_encoder,
)
from jghm import oracle
from jghm.model import ModelError, ModelGenSpec, TreeTopology, make_pflip_model
from jghm.oracle import (
    BudgetExceeded,
    all_leaf_tuples,
    config_count,
    encode_leaves,
    enumerate_joint,
    exact_conditional_root,
    exact_denoiser,
    exact_mi_encoder,
    exact_next_token,
    exact_suff_encoder,
    exact_suff_score,
    kl_rows,
    mi_from_joint,
    next_token_from_weights,
)
from jghm.metrics import vlm_divergence
from jghm.presets import large_scale_topology
from test_model import uniform_model


class TestJointTable:
    def test_total_mass(self, ref_table):
        assert abs(ref_table.joint.sum() - 1.0) <= 1e-10

    def test_marginals_consistent(self, ref_table):
        from_cond_im = ref_table.prior @ ref_table.cond_im
        from_cond_tx = ref_table.prior @ ref_table.cond_tx
        assert np.allclose(ref_table.p_im, from_cond_im, atol=1e-10)
        assert np.allclose(ref_table.p_tx, from_cond_tx, atol=1e-10)

    def test_single_node_tree_closed_form(self):
        topo = TreeTopology(depth=1, m_im=(1,), m_tx=(1,), n_states=3)
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.5, seed=5))
        table = enumerate_joint(m)
        k_im, k_tx = m.kernels_im[0][0], m.kernels_tx[0][0]
        want = sum(
            m.root_prior[s] * np.outer(k_im[s], k_tx[s]) for s in range(3)
        )
        assert np.allclose(table.joint, want, atol=1e-14)

    def test_permutation_support(self, perm_table):
        nonzero = perm_table.joint[perm_table.joint > 0]
        assert len(nonzero) == 3
        assert np.allclose(nonzero, 1.0 / 3.0)

    def test_bayes_rule_consistency(self, ref_model, ref_table):
        # conditional root from the joint table equals the direct computation
        draws = sample_joint_batch(ref_model, 10, stream(1, "bayes"))
        for k in range(10):
            direct = exact_conditional_root(ref_table, "im", draws.x_im[k])
            i = ref_table.index("im", draws.x_im[k])
            via_joint = ref_table.prior * ref_table.cond_im[:, i]
            assert np.allclose(direct, via_joint / via_joint.sum(), atol=1e-10)

    @pytest.mark.parametrize("leaves, got", [
        ([1, 2, 3], r"shape \(3,\)"), ([1, 2, 3, 4], "states 1..4"), ([0, 3, 3, 3], "states 0..3"),
        ([[1, 1, 1, 1], [1, 1, 1, 4]], "states 1..4"), ([1.7, 1, 1, 1], "dtype float64"),
    ], ids=["3-leaves", "state-4", "state-0", "batch", "float"])
    def test_wrong_leaf_tuple_raises(self, ref_table, leaves, got):
        """A tuple of another length, of a non-integer dtype or with a state
        outside [1, S] names the modality, the leaf count and the range; it is
        never read as another."""
        def match(modality):
            return rf"{modality} leaves must be tuples of 4 states in \[1, 3\], got {got}"

        with pytest.raises(ModelError, match=match("im")):
            exact_conditional_root(ref_table, "im", leaves)
        with pytest.raises(ModelError, match=match("im")):
            exact_next_token(ref_table, leaves, [1])
        with pytest.raises(ModelError, match=match("tx")):
            exact_denoiser(ref_table, np.zeros(4), 1.0, leaves)

    def test_budget_guard(self):
        topo = large_scale_topology()
        assert config_count(topo) > 2_000_000
        m = make_pflip_model(ModelGenSpec(topology=topo, p_flip=0.2, seed=0))
        with pytest.raises(BudgetExceeded):
            enumerate_joint(m)


class TestConditionalRoot:
    def test_permutation_one_hot(self, perm_model, perm_table):
        draws = sample_joint_batch(perm_model, 5, stream(2, "cr"))
        for k in range(5):
            post = exact_conditional_root(perm_table, "tx", draws.x_tx[k])
            assert post[draws.root[k] - 1] == pytest.approx(1.0)

    def test_constant_kernels_give_prior(self):
        m = uniform_model()
        table = enumerate_joint(m)
        post = exact_conditional_root(table, "im", np.array([2, 1, 3, 3]))
        assert np.allclose(post, m.root_prior, atol=1e-12)

    def test_zero_mass_leaves_raise_model_error(self, perm_table):
        # 78 of the 81 image tuples of the permutation model have zero mass
        with pytest.raises(ModelError, match="leaves have zero probability under the model"):
            exact_conditional_root(perm_table, "im", [1, 1, 1, 1])


class TestMutualInformation:
    def test_permutation_equals_log_s(self, perm_table):
        assert mi_from_joint(perm_table.joint) == pytest.approx(np.log(3), abs=1e-12)

    def test_constant_kernels_independent(self):
        table = enumerate_joint(uniform_model())
        assert mi_from_joint(table.joint) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_score_average(self, ref_model, ref_table):
        mi = mi_from_joint(ref_table.joint)
        n = 40_000
        draws = sample_joint_batch(ref_model, n, stream(3, "miavg"))
        scores = exact_score(ref_model)(draws.x_im, draws.x_tx)
        se = scores.std(ddof=1) / np.sqrt(n)
        assert abs(scores.mean() - mi) <= 4 * se


class TestSufficiency:
    def test_exact_encoder_sufficient(self, ref_model, ref_table):
        for modality in ("im", "tx"):
            suff = exact_suff_encoder(ref_table, canonical_encoder(ref_model, modality), modality)
            assert 0 <= suff <= 1e-9

    def test_constant_encoder_loses_everything(self, ref_model, ref_table):
        mi = mi_from_joint(ref_table.joint)
        suff = exact_suff_encoder(ref_table, constant_encoder(ref_model, "im"), "im")
        assert suff == pytest.approx(mi, abs=1e-9)

    def test_coarsened_encoder_strictly_between(self, ref_model, ref_table):
        mi = mi_from_joint(ref_table.joint)
        suff = exact_suff_encoder(ref_table, coarsened_root_encoder(ref_model, "im"), "im")
        assert 0 < suff <= mi

    def test_prefix_encoder_strictly_between(self, ref_model, ref_table):
        mi = mi_from_joint(ref_table.joint)
        suff = exact_suff_encoder(ref_table, prefix_text_encoder(ref_model), "tx")
        assert 0 < suff <= mi

    def test_information_loss_identity(self, ref_model, ref_table):
        mi = mi_from_joint(ref_table.joint)
        encoders = {
            "im": [canonical_encoder(ref_model, "im"), coarsened_root_encoder(ref_model, "im"),
                   constant_encoder(ref_model, "im")],
            "tx": [canonical_encoder(ref_model, "tx"), coarsened_root_encoder(ref_model, "tx"),
                   constant_encoder(ref_model, "tx"), prefix_text_encoder(ref_model)],
        }
        for modality, encs in encoders.items():
            for enc in encs:
                suff = exact_suff_encoder(ref_table, enc, modality)
                mi_enc = exact_mi_encoder(ref_table, enc, modality)
                assert suff == pytest.approx(mi - mi_enc, abs=1e-9)

    def test_data_processing_under_further_coarsening(self, ref_model, ref_table):
        fine = coarsened_root_encoder(ref_model, "im", precision=2)
        coarse = coarsened_root_encoder(ref_model, "im", precision=1)
        cruder = coarsened_root_encoder(ref_model, "im", precision=0)
        s_fine = exact_suff_encoder(ref_table, fine, "im")
        s_coarse = exact_suff_encoder(ref_table, coarse, "im")
        s_cruder = exact_suff_encoder(ref_table, cruder, "im")
        assert s_fine <= s_coarse <= s_cruder

    def test_permutation_model_exact_values(self, perm_model, perm_table):
        # 78 of the 81 leaf tuples per modality have zero mass and are never encoded
        mi = mi_from_joint(perm_table.joint)
        assert mi == pytest.approx(np.log(3), abs=1e-12)
        for modality in ("im", "tx"):
            canonical = canonical_encoder(perm_model, modality)
            constant = constant_encoder(perm_model, modality)
            assert exact_suff_encoder(perm_table, canonical, modality) == 0.0
            assert exact_suff_encoder(perm_table, constant, modality) == mi


class TestScoreSufficiency:
    def test_optimal_score_zero(self, ref_model, ref_table):
        suff = exact_suff_score(ref_table, exact_score(ref_model))
        assert 0 <= suff <= 1e-9

    def test_permutation_model_optimal_score_zero(self, perm_model, perm_table):
        assert exact_suff_score(perm_table, exact_score(perm_model)) == 0.0

    def test_constant_score_double_mi(self, ref_model, ref_table):
        mi = mi_from_joint(ref_table.joint)
        suff = exact_suff_score(ref_table, constant_score())
        assert suff == pytest.approx(2 * mi, abs=1e-9)

    def test_perturbed_score_positive(self, ref_model, ref_table):
        base = exact_score(ref_model)

        class Jittered:
            name = "jittered"

            def __call__(self, x_im, x_tx):
                wiggle = 0.3 * np.sin(np.asarray(x_im).sum(axis=-1).astype(float))
                return base(x_im, x_tx) + wiggle

        suff = exact_suff_score(ref_table, Jittered())
        assert suff > 1e-4


class TestExactDenoiser:
    def test_permutation_matching_text_returns_image(self, perm_model, perm_table):
        draws = sample_joint_batch(perm_model, 3, stream(4, "ed"))
        for k in range(3):
            z = np.array([0.3, -1.0, 2.2, 0.0])
            out = exact_denoiser(perm_table, z, 1.0, draws.x_tx[k])
            assert np.allclose(out, draws.x_im[k], atol=1e-12)

    def test_zero_mass_text_raises_model_error(self, perm_table):
        with pytest.raises(ModelError, match="text leaves have zero probability under the model"):
            exact_denoiser(perm_table, np.zeros(4), 1.0, [1, 1, 1, 1])

    def test_output_range(self, ref_model, ref_table):
        rng = stream(5, "ed2")
        s = sample_joint_batch(ref_model, 1, rng)
        z = rng.standard_normal(4)
        out = exact_denoiser(ref_table, z, 0.8, s.x_tx[0])
        assert np.all((out >= 1) & (out <= 3))


class TestExactNextToken:
    def test_sums_to_one(self, ref_model, ref_table):
        s = sample_joint_batch(ref_model, 1, stream(6, "nt"))
        for i in range(4):
            post = exact_next_token(ref_table, s.x_im[0], s.x_tx[0][:i])
            assert post.sum() == pytest.approx(1.0)
        # the empty prefix may be float64, as np.asarray([]) is
        assert np.array_equal(exact_next_token(ref_table, s.x_im[0], []),
                              exact_next_token(ref_table, s.x_im[0], s.x_tx[0][:0]))

    def test_zero_mass_prefix_raises_model_error(self, perm_table):
        # every text of positive mass under the permutation model starts 1, 2
        with pytest.raises(ModelError, match="prefix has zero probability in the conditioned law"):
            next_token_from_weights(perm_table, perm_table.p_tx, [1, 1])

    @pytest.mark.parametrize("prefix, message", [
        ([4], r"prefix values must lie in \[1, 3\], got 4\.\.4"),
        ([0], r"prefix values must lie in \[1, 3\], got 0\.\.0"),
        ([1, 1, 1, 1], "prefix length 4 exceeds d_tx - 1 = 3"),
        ([1, 1, 1, 1, 1], "prefix length 5 exceeds d_tx - 1 = 3"),
        ([1.7], "prefix tokens must be integer states, got dtype float64"),
    ])
    def test_prefix_checked_before_use(self, ref_model, ref_table, prefix, message):
        """The oracle and BP check a prefix alike, through one helper."""
        for next_token in (lambda p: exact_next_token(ref_table, [1, 1, 1, 1], p),
                           lambda p: next_token_posterior_bp(ref_model, np.ones(4, dtype=int), p)):
            with pytest.raises(ModelError, match=message):
                next_token(prefix)


class TestInfoHelpers:
    def test_kl_conventions(self):
        assert kl_rows([0.5, 0.5, 0.0], [0.25, 0.75, 0.0]) > 0
        assert kl_rows([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))
        assert kl_rows([0.5, 0.5], [1.0, 0.0]) == np.inf
        assert kl_rows([0.3, 0.7], [0.3, 0.7]) == 0.0
        rows = kl_rows([[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]])
        assert rows.shape == (2,) and rows[0] == pytest.approx(np.log(2)) and rows[1] == np.inf

    def test_mi_nonnegative(self):
        joint = np.array([[0.25, 0.25], [0.25, 0.25]])
        assert mi_from_joint(joint) == 0.0



def test_only_enumerate_joint_takes_a_budget():
    """Every exact quantity reads a JointTable: across the public names of
    each module, only enumerate_joint takes a budget, and no table parameter
    has a default that would enumerate in its place."""
    budgets, defaulted = [], []
    for info in pkgutil.iter_modules(jghm.__path__):
        module = importlib.import_module(f"jghm.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            params = inspect.signature(obj).parameters
            if "budget" in params:
                budgets.append(f"{info.name}.{name}")
            if "table" in params and params["table"].default is not inspect.Parameter.empty:
                defaulted.append(f"{info.name}.{name}")
    assert budgets == ["oracle.enumerate_joint"]
    assert defaulted == []


# Topologies the CLI digests do not run: one wide level at S = 2, a level of
# one child per node, and S = 4 with four text leaves; plus the reference one.
PIN_TOPOLOGIES = {
    "depth1-m9-S2": TreeTopology(depth=1, m_im=(3,), m_tx=(9,), n_states=2),
    "rank1": TreeTopology(depth=3, m_im=(1, 2, 1), m_tx=(1, 2, 1), n_states=3),
    "S4-dtx4": TreeTopology(depth=2, m_im=(1, 2), m_tx=(2, 2), n_states=4),
    "reference": TreeTopology(depth=2, m_im=(2, 2), m_tx=(2, 2), n_states=3),
}

# (topology, p_flip) -> (vlm_divergence of the canonical, coarsened and
# constant image encoders as float.hex, sha256 prefix of the stacked
# exact_next_token rows at every prefix of four drawn rows)
ORACLE_PINS = {
    ("depth1-m9-S2", 0.0): (("0x0.0p+0", "0x1.62e42fefa39efp-1", "0x1.62e42fefa39efp-1"),
                            "25a6d059f1fcfdea"),
    ("depth1-m9-S2", 0.3): (("0x0.0p+0", "0x1.28e902b4105f9p-1", "0x1.28e902b4105f9p-1"),
                            "16db58dfd3323349"),
    ("rank1", 0.0): (("0x0.0p+0", "0x1.d9303fea2f7e9p-2", "0x1.193ea7aad030bp+0"),
                     "49ebe36222d135b8"),
    ("rank1", 0.3): (("0x0.0p+0", "0x1.084b27dfa4854p-7", "0x1.2d222a314994ap-5"),
                     "a713a9483b21a997"),
    ("S4-dtx4", 0.0): (("0x0.0p+0", "0x1.62e42fefa39efp-2", "0x1.62e42fefa39efp+0"),
                       "4a80decfa04f0cea"),
    ("S4-dtx4", 0.3): (("0x0.0p+0", "0x1.94084e607964bp-6", "0x1.2e811b178528bp-2"),
                       "f5d37b1b396bdd34"),
    ("reference", 0.0): (("0x0.0p+0", "0x1.d9303fea2f7e9p-2", "0x1.193ea7aad030bp+0"),
                         "63720c822de08b77"),
    ("reference", 0.3): (("0x0.0p+0", "0x1.508cf04f66747p-3", "0x1.a10c81a332758p-2"),
                         "181a94cb66f3c58a"),
}


@pytest.mark.parametrize("topology, p_flip", list(ORACLE_PINS))
def test_oracle_bits_pinned(topology, p_flip):
    """The exact next-token law and divergence keep every bit; a change of
    these pins must be deliberate."""
    topo = PIN_TOPOLOGIES[topology]
    model = make_pflip_model(ModelGenSpec(topology=topo, p_flip=p_flip, seed=7))
    table = enumerate_joint(model)
    vlm = tuple(vlm_divergence(table, encoder(model, "im")).estimate.hex()
                for encoder in (canonical_encoder, coarsened_root_encoder, constant_encoder))
    draws = sample_joint_batch(model, 4, stream(7, "oracle-pin"))
    next_token = np.stack([exact_next_token(table, x_im, x_tx[:i])
                           for x_im, x_tx in zip(draws.x_im, draws.x_tx) for i in range(topo.d_tx)])
    assert (vlm, hashlib.sha256(next_token.tobytes()).hexdigest()[:16]) == ORACLE_PINS[topology, p_flip]


@pytest.mark.parametrize("topology", PIN_TOPOLOGIES)
def test_leaf_tuples_round_trip(topology):
    """Row j of the leaf tuples encodes to j, and the rows are C-contiguous
    (a Fortran-ordered copy rounds the BLAS products that read it otherwise)."""
    topo = PIN_TOPOLOGIES[topology]
    for d in (topo.d_im, topo.d_tx):
        tuples = all_leaf_tuples(d, topo.n_states)
        assert tuples.flags.c_contiguous
        assert np.array_equal(encode_leaves(tuples, topo.n_states), np.arange(topo.n_states**d))


def test_oracle_imports_only_the_model():
    """The oracle is the independent authority: of this package it imports
    `.model` alone, so it never calls BP."""
    modules = set()
    for node in ast.walk(ast.parse(open(oracle.__file__).read())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert {m for m in modules if m.startswith(".") or m.split(".")[0] == "jghm"} == {".model"}
