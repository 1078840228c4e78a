import ast
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jghm.bp import root_posterior
from jghm.encoders import exact_score
from jghm.model import (
    JghmModel,
    ModelError,
    ModelGenSpec,
    TreeTopology,
    _count,
    _level_draws,
    _real,
    _seed,
    effective_b_psi,
    make_pflip_model,
    model_from_json,
    model_to_json,
    pflip_models,
    validate_model,
)
from jghm.oracle import exact_conditional_root
from jghm.presets import REFERENCE_SEED, large_scale_topology
from jghm.rng import stream
from jghm.sampler import sample_marginal_leaves


def topo(depth=2, m_im=(2, 2), m_tx=(2, 2), S=3):
    return TreeTopology(depth=depth, m_im=m_im, m_tx=m_tx, n_states=S)


class TestTopology:
    def test_leaf_counts(self):
        t = topo(m_im=(2, 3), m_tx=(3, 1))
        assert t.d_im == 6 and t.d_tx == 3
        assert t.level_sizes("im") == (2, 6)
        assert t.level_sizes("tx") == (3, 3)
        assert t.total_nodes() == 1 + 8 + 6

    def test_invalid_topologies(self):
        with pytest.raises(ModelError):
            TreeTopology(depth=0, m_im=(), m_tx=(), n_states=3)
        with pytest.raises(ModelError):
            TreeTopology(depth=1, m_im=(2,), m_tx=(2,), n_states=1)
        with pytest.raises(ModelError):
            TreeTopology(depth=2, m_im=(2,), m_tx=(2, 2), n_states=3)
        with pytest.raises(ModelError):
            TreeTopology(depth=1, m_im=(0,), m_tx=(1,), n_states=2)

    @pytest.mark.parametrize("field, value", [
        ("depth", 2.0), ("depth", True), ("depth", "2"), ("n_states", "3"), ("n_states", 3.0),
        ("n_states", None), ("m_im", (2.7, 2)), ("m_im", (True, 2)), ("m_tx", (2, "2")),
        ("m_tx", 2), ("m_tx", "22"),
    ])
    def test_non_integral_counts_rejected(self, field, value):
        fields = {"depth": 2, "m_im": (2, 2), "m_tx": (2, 2), "n_states": 3, field: value}
        with pytest.raises(ModelError, match=field):
            TreeTopology(**fields)

    def test_numpy_integers_accepted(self):
        t = TreeTopology(depth=np.int64(2), m_im=np.array([2, 3]), m_tx=[np.int32(3), 1],
                         n_states=np.uint8(3))
        assert t == topo(m_im=(2, 3), m_tx=(3, 1))
        assert all(type(v) is int for v in (t.depth, t.n_states, *t.m_im, *t.m_tx))


class TestScalarReaders:
    """`_count`, `_seed` and `_real`: the one home of the scalar checks."""

    @pytest.mark.parametrize("read, value", [
        (_count, 1), (_count, np.uint8(7)), (_count, 2**200),
        (lambda v: _count(v, low=0, high=3), 0), (lambda v: _count(v, high=3), np.int64(3)),
        (_seed, -2**127), (_seed, 2**127 - 1), (_seed, np.int16(-5)),
        (_real, -1e308), (_real, 3), (_real, np.float64(0.5)), (_real, Fraction(1, 3)),
        (lambda v: _real(v, low=0), 0), (lambda v: _real(v, low=0, high=1), 1),
    ])
    def test_accepted_value_is_returned_unchanged(self, read, value):
        assert read(value) is value

    @pytest.mark.parametrize("read, value, message", [
        (lambda v: _count(v, what="n"), 0, "n must be an integer >= 1, got 0"),
        (lambda v: _count(v, low=2, what="K"), True, "K must be an integer >= 2, got True"),
        (lambda v: _count(v, what="M"), 2.0, "M must be an integer >= 1, got 2.0"),
        (lambda v: _count(v, high=3, what="y"), 4, "y must be an integer in [1, 3], got 4"),
        (_count, "3", "must be an integer >= 1, got '3'"),
        (lambda v: _seed(v, what="seed"), 2**127, "seed must be an integer in [-2**127, 2**127), "
                                                  f"got {2**127}"),
        (_seed, 1.0, "must be an integer in [-2**127, 2**127), got 1.0"),
        (lambda v: _real(v, what="x"), float("nan"), "x must be a finite real number, got nan"),
        (_real, True, "must be a finite real number, got True"),
        (_real, 10**400, f"must be a finite real number, got {10**400}"),
        (_real, None, "must be a finite real number, got None"),
        (lambda v: _real(v, low=0, what="t"), -0.5, "t must be a finite real >= 0, got -0.5"),
        (lambda v: _real(v, low=0), float("inf"), "must be a finite real >= 0, got inf"),
        (lambda v: _real(v, low=0, high=1, what="p"), 1.5, "p must be a real number in [0, 1], got 1.5"),
        (lambda v: _real(v, low=0, high=1), True, "must be a real number in [0, 1], got True"),
    ])
    def test_rejected_value_is_named(self, read, value, message):
        with pytest.raises(ModelError) as e:
            read(value)
        assert str(e.value) == message

    def test_only_model_and_rng_test_for_bools(self):
        """No other module hand-rolls a scalar check: a call of
        isinstance(..., bool) outside model.py and rng.py is one."""
        def names(node):
            return [e.id for e in getattr(node, "elts", [node]) if isinstance(e, ast.Name)]

        src = Path(__file__).resolve().parents[1] / "src" / "jghm"
        found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 if path.name not in ("model.py", "rng.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                 and len(node.args) == 2 and "bool" in names(node.args[1])]
        assert found == []


def uniform_model(S=3):
    t = topo(S=S)
    uni = np.full((S, S), 1.0 / S)
    return JghmModel(
        topology=t,
        root_prior=np.full(S, 1.0 / S),
        kernels_im=((uni, uni), (uni, uni)),
        kernels_tx=((uni, uni), (uni, uni)),
    )


class TestValidateModel:
    def test_uniform_model_ok(self):
        b = validate_model(uniform_model())
        assert b == pytest.approx(3.0)

    def test_permutation_model_warns_infinite_budget(self):
        m = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=0.0, seed=4))
        with pytest.warns(UserWarning, match="B_psi = inf"):
            b = validate_model(m)
        assert np.isinf(b)

    def test_bad_row_sum_rejected(self):
        m = uniform_model()
        bad = np.full((3, 3), 0.3)  # rows sum to 0.9
        broken = JghmModel(
            topology=m.topology,
            root_prior=m.root_prior,
            kernels_im=((bad, m.kernels_im[0][1]), m.kernels_im[1]),
            kernels_tx=m.kernels_tx,
        )
        with pytest.raises(ModelError, match="row sums"):
            validate_model(broken)

    def test_negative_entry_rejected(self):
        m = uniform_model()
        bad = np.array([[1.2, -0.1, -0.1], [0.4, 0.3, 0.3], [0.4, 0.3, 0.3]])
        broken = JghmModel(
            topology=m.topology,
            root_prior=m.root_prior,
            kernels_im=m.kernels_im,
            kernels_tx=((bad, m.kernels_tx[0][1]), m.kernels_tx[1]),
        )
        with pytest.raises(ModelError, match="negative"):
            validate_model(broken)

    def test_shape_mismatch_rejected(self):
        # shapes are checked when the model is built, before validate_model
        m = uniform_model()
        with pytest.raises(ModelError, match="levels"):
            JghmModel(
                topology=m.topology,
                root_prior=m.root_prior,
                kernels_im=(m.kernels_im[0],),
                kernels_tx=m.kernels_tx,
            )


class TestPflipFamily:
    def test_p_zero_rows_one_hot(self):
        m = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=0.0, seed=9))
        for level in m.kernels_im + m.kernels_tx:
            for k in level:
                assert np.all(np.isin(k, (0.0, 1.0)))
                assert np.all(k.sum(axis=1) == 1.0)

    def test_p_one_strictly_positive(self):
        m = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=1.0, seed=9))
        for level in m.kernels_im:
            for k in level:
                assert np.all(k > 0)

    def test_convex_combination_reconstructs(self):
        spec0 = ModelGenSpec(topology=topo(), p_flip=0.0, seed=13)
        spec1 = ModelGenSpec(topology=topo(), p_flip=1.0, seed=13)
        spec_half = ModelGenSpec(topology=topo(), p_flip=0.5, seed=13)
        m0, m1, mh = map(make_pflip_model, (spec0, spec1, spec_half))
        for lv in range(2):
            for r in range(2):
                expected = 0.5 * m0.kernels_im[lv][r] + 0.5 * m1.kernels_im[lv][r]
                assert np.allclose(mh.kernels_im[lv][r], expected, atol=1e-15)

    def test_referential_transparency(self):
        spec = ModelGenSpec(topology=topo(), p_flip=0.37, seed=99)
        a, b = make_pflip_model(spec), make_pflip_model(spec)
        assert np.array_equal(a.root_prior, b.root_prior)
        for la, lb in zip(a.kernels_tx, b.kernels_tx):
            for ka, kb in zip(la, lb):
                assert np.array_equal(ka, kb)

    def test_positive_floor_for_positive_p(self):
        p = 0.2
        m = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=p, seed=3))
        b = validate_model(m)
        assert np.isfinite(b)
        smallest = min(k.min() for level in m.kernels_im + m.kernels_tx for k in level)
        assert smallest > 0

    def test_per_modality_mixing(self):
        spec = ModelGenSpec(topology=topo(), p_flip=0.3, p_flip_tx=0.05, seed=3)
        m = make_pflip_model(spec)
        ref = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=0.3, seed=3))
        assert np.array_equal(m.kernels_im[0][0], ref.kernels_im[0][0])
        assert not np.array_equal(m.kernels_tx[0][0], ref.kernels_tx[0][0])
        assert m.metadata["p_flip_tx"] == 0.05

    def test_gaussian_scale_recorded(self):
        spec = ModelGenSpec(topology=topo(), p_flip=0.5, seed=3, gaussian_scale=2.5)
        assert make_pflip_model(spec).metadata["gaussian_scale"] == 2.5

    def test_invalid_p_flip(self):
        with pytest.raises(ModelError):
            ModelGenSpec(topology=topo(), p_flip=1.5, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"p_flip": None}, {"p_flip": "0.2"}, {"p_flip": True}, {"p_flip": float("nan")},
        {"p_flip": 0.2, "p_flip_im": "x"}, {"p_flip": 0.2, "p_flip_tx": False},
        {"p_flip": 0.2, "p_flip_tx": -0.1},
    ])
    def test_mixing_weight_must_be_a_real_probability(self, kwargs):
        name = next(k for k in ("p_flip_im", "p_flip_tx", "p_flip") if k in kwargs)
        with pytest.raises(ModelError, match=name):
            ModelGenSpec(topology=topo(), seed=0, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": "3"}, {"seed": True}, {"seed": None}, {"seed": 2**200},
        {"seed": -2**127 - 1}, {"seed": 2**127}, {"gaussian_scale": True},
        {"gaussian_scale": "x"}, {"gaussian_scale": float("nan")},
        {"gaussian_scale": float("inf")}, {"gaussian_scale": None},
    ])
    def test_seed_and_scale_must_not_be_coerced(self, kwargs):
        fields = {"seed": 0, **kwargs}
        with pytest.raises(ModelError, match=next(iter(kwargs))):
            ModelGenSpec(topology=topo(), p_flip=0.2, **fields)

    def test_numpy_seed_and_scale_accepted(self):
        spec = ModelGenSpec(topology=topo(), p_flip=0.2, seed=np.int64(-2**63), gaussian_scale=2)
        assert type(spec.seed) is int and type(spec.gaussian_scale) is float
        ends = [ModelGenSpec(topology=topo(), p_flip=0.2, seed=s).seed for s in (-2**127, 2**127 - 1)]
        assert ends == [-2**127, 2**127 - 1]

    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_models_always_validate(self, depth, m, S, p, seed):
        t = TreeTopology(depth=depth, m_im=(m,) * depth, m_tx=(m,) * depth, n_states=S)
        model = make_pflip_model(ModelGenSpec(topology=t, p_flip=p, seed=seed))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = validate_model(model)
        assert b >= S or np.isinf(b)


def _bits(model):
    """Every array and the metadata of a model, as bytes and dicts."""
    arrays = [model.root_prior, model.root_cum]
    for modality in ("im", "tx"):
        arrays.extend(model.kernels(modality))  # one (m, S, S) stack per level
        plan = model.plan(modality)
        arrays.extend(a for table in (plan.cum, plan.down, plan.up, plan.columns) for a in table)
    return [(a.shape, a.tobytes()) for a in arrays], model.metadata


class TestSharedDraws:
    """Models mixed from one set of draws equal models with draws of their own."""

    @pytest.mark.parametrize("overrides", [{}, {"p_flip_im": 0.05}, {"p_flip_tx": 0.9},
                                           {"p_flip_im": 1.0, "p_flip_tx": 0.0}],
                             ids=["none", "im", "tx", "both"])
    def test_mixed_model_bitwise_equal_to_own_draws(self, overrides):
        t = topo(m_im=(3, 2), m_tx=(2, 3), S=4)
        models = pflip_models(ModelGenSpec(topology=t, p_flip=0.5, seed=13, gaussian_scale=1.7,
                                           **overrides))
        for p in (0.0, 0.2, 0.3, 1.0):
            spec = ModelGenSpec(topology=t, p_flip=p, seed=13, gaussian_scale=1.7, **overrides)
            assert _bits(models(p)) == _bits(make_pflip_model(spec))

    def test_draws_are_frozen(self):
        """Each level's draws, which the models of a run share across
        threads, are a pair of read-only (m, S, S) stacks."""
        t = topo(m_im=(3, 2), m_tx=(2, 3), S=4)
        spec = ModelGenSpec(topology=t, p_flip=0.3, seed=13)
        for modality in ("im", "tx"):
            for level, m in enumerate(t.branching(modality), start=1):
                for a in _level_draws(spec, modality, level, m):
                    assert a.shape == (m, 4, 4) and not a.flags.writeable

    def test_overflowing_gaussian_scale_raises_in_the_draws(self):
        with pytest.raises(ModelError, match=r"gaussian_scale: 1e\+308 overflows the kernel draws"):
            pflip_models(ModelGenSpec(topology=topo(), p_flip=0.0, seed=13, gaussian_scale=1e308))

    def test_model_p_flip_is_checked(self):
        models = pflip_models(ModelGenSpec(topology=topo(), p_flip=0.0, seed=13))
        with pytest.raises(ModelError, match="p_flip must be a real number in"):
            models(1.5)


# 5 topologies x 3 seeds x 3 gaussian scales x 4 mixes = 180 specs
PIN_TOPOLOGIES = [topo(), topo(depth=1, m_im=(1,), m_tx=(1,), S=2),
                  topo(depth=1, m_im=(2,), m_tx=(2,), S=2), topo(m_im=(3, 2), m_tx=(2, 3), S=4),
                  large_scale_topology()]
PIN_MIXES = [{"p_flip": 0.0}, {"p_flip": 1.0}, {"p_flip": 0.3, "p_flip_im": 0.05},
             {"p_flip": 0.6, "p_flip_tx": 0.9}]


def test_kernel_bits_pinned():
    """The bytes of every kernel, the cumulative root prior, every plan table
    and the model file of a grid of generated models. A change of the
    kernel storage must leave every byte as it is (digest taken at 85235cf,
    where each kernel was an array of its own)."""
    h = hashlib.sha256()
    for t, seed, scale, mix in itertools.product(PIN_TOPOLOGIES, (REFERENCE_SEED, 0, 7),
                                                 (1.0, 0.25, 3.0), PIN_MIXES):
        model = make_pflip_model(ModelGenSpec(topology=t, seed=seed, gaussian_scale=scale, **mix))
        h.update(model.root_cum.tobytes())
        for modality in ("im", "tx"):
            for level in model.kernels(modality):
                for k in level:
                    h.update(k.tobytes())
            plan = model.plan(modality)
            for table in (plan.cum, plan.down, plan.up, plan.columns):
                for a in table:
                    h.update(a.tobytes())
        h.update(model_to_json(model).encode())
    assert h.hexdigest() == "d0815bc495b8a221c5478e0174a2855099c9f5a2f483daff89e27156e50f5518"


class TestSerialization:
    def test_round_trip_bit_exact(self):
        m = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=0.31, seed=7))
        text = model_to_json(m)
        back = model_from_json(text)
        assert np.array_equal(back.root_prior, m.root_prior)
        for la, lb in zip(back.kernels_im, m.kernels_im):
            for ka, kb in zip(la, lb):
                assert np.array_equal(ka, kb)
        assert model_to_json(back) == text

    def test_same_spec_same_bytes(self):
        spec = ModelGenSpec(topology=topo(), p_flip=0.31, seed=7)
        assert model_to_json(make_pflip_model(spec)) == model_to_json(make_pflip_model(spec))

    def test_metadata_preserved(self):
        m = make_pflip_model(ModelGenSpec(topology=topo(), p_flip=0.2, seed=1))
        doc = json.loads(model_to_json(m))
        assert doc["metadata"]["p_flip"] == 0.2
        assert doc["schema_version"] == 1

    def test_bad_schema_rejected(self):
        with pytest.raises(ModelError):
            model_from_json('{"schema_version": 99}')


def test_effective_b_psi_uniform():
    assert effective_b_psi(uniform_model()) == pytest.approx(3.0)


def test_models_are_frozen(ref_model):
    with pytest.raises(ValueError):
        ref_model.root_prior[0] = 0.5
    with pytest.raises(ValueError):
        ref_model.kernels_im[0][0][0, 0] = 0.5
    with pytest.raises(ValueError):
        ref_model.kernels_tx[1][1, 0, 0] = 0.5
    plan_arrays = [ref_model.root_cum]
    for modality in ("im", "tx"):
        plan = ref_model.plan(modality)
        for table in (plan.cum, plan.down, plan.up, plan.columns):
            assert len(table) == ref_model.topology.depth
            plan_arrays.extend(table)
    for a in plan_arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.5


def test_plan_tables_hold_the_kernels(ref_model):
    S = ref_model.n_states
    assert np.array_equal(ref_model.root_cum, np.cumsum(ref_model.root_prior))
    for modality in ("im", "tx"):
        plan = ref_model.plan(modality)
        for level, kernels in enumerate(ref_model.kernels(modality)):
            for j, k in enumerate(kernels):
                block = slice(j * S, (j + 1) * S)
                assert np.array_equal(plan.cum[level][j], np.cumsum(k, axis=1))
                assert np.array_equal(plan.down[level][block, block], k.T)
                assert np.array_equal(plan.up[level][block, block], k)
                assert np.array_equal(plan.columns[level][block], k.T)
            m = len(kernels)
            assert np.count_nonzero(plan.up[level]) == np.count_nonzero(kernels)
            assert plan.down[level].shape == (m * S, m * S)


def test_kernel_shape_rejected_at_construction():
    """A kernels field or level that is not a sequence, a level of the wrong
    count, or a rank that is not an S x S array raises ModelError naming the
    field, the level or the rank."""
    m = uniform_model()
    for level, message in [
        ((np.eye(2), np.eye(2)), r"kernels_im\[1\]\[1\]: kernel shape \(2, 2\) != \(3, 3\)"),
        ((np.eye(3), np.eye(2)), r"kernels_im\[1\]\[2\]: kernel shape \(2, 2\) != \(3, 3\)"),
        ((np.eye(3), np.eye(3)[:2]), r"kernels_im\[1\]\[2\]: kernel shape \(2, 3\) != \(3, 3\)"),
        ((np.eye(3), [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),  # a ragged row
         r"kernels_im\[1\]\[2\]: kernel is not a \(3, 3\) array of numbers"),
        (([[1.0, 0.0, 0.0], "abc", [0.0, 0.0, 1.0]], np.eye(3)),
         r"kernels_im\[1\]\[1\]: kernel is not a \(3, 3\) array of numbers"),
        ((np.eye(3),), r"kernels_im\[1\] must have 2 kernels, got 1"),
        ((np.eye(3),) * 3, r"kernels_im\[1\] must have 2 kernels, got 3"),
        (np.eye(3)[None], r"kernels_im\[1\] must have 2 kernels, got 1"),
        (5, r"kernels_im\[1\] must be a sequence of 2 kernels, got int"),
        (None, r"kernels_im\[1\] must be a sequence of 2 kernels, got NoneType"),
    ]:
        with pytest.raises(ModelError, match=message):
            JghmModel(topology=m.topology, root_prior=m.root_prior,
                      kernels_im=(level, m.kernels_im[1]), kernels_tx=m.kernels_tx)
    for kernels, kind in [(5, "int"), (None, "NoneType"), (np.float64(0.5), "float64")]:
        with pytest.raises(ModelError, match=f"kernels_tx must be a sequence of 2 levels, got {kind}"):
            JghmModel(topology=m.topology, root_prior=m.root_prior, kernels_im=m.kernels_im,
                      kernels_tx=kernels)


def test_model_copies_its_kernels():
    """A model holds one read-only (m, S, S) copy per level: changing the
    arrays it was built from leaves it as it was."""
    m = uniform_model()
    given = np.full((2, 2, 3, 3), 1.0 / 3)
    model = JghmModel(topology=m.topology, root_prior=m.root_prior, kernels_im=given,
                      kernels_tx=list(given))
    given[:] = 0.0
    for level in (*model.kernels_im, *model.kernels_tx):
        assert level.shape == (2, 3, 3) and not level.flags.writeable
        assert np.all(level == 1.0 / 3)
    assert model_to_json(model) == model_to_json(m)


@pytest.mark.parametrize("modality", ["image", "IM", "", None])
@pytest.mark.parametrize("call", [
    lambda model, table, modality: model.topology.branching(modality),
    lambda model, table, modality: model.kernels(modality),
    lambda model, table, modality: model.plan(modality),
    lambda model, table, modality: table.cond(modality),
    lambda model, table, modality: table.tuples(modality),
    lambda model, table, modality: root_posterior(model, modality, np.ones(4, dtype=int)),
    lambda model, table, modality: exact_conditional_root(table, modality, np.ones(4, dtype=int)),
    lambda model, table, modality: sample_marginal_leaves(model, modality, 2, stream(0, "m")),
    lambda model, table, modality: exact_score(model).features(modality, np.ones(4, dtype=int)),
    lambda model, table, modality: ModelGenSpec(model.topology, 0.2, 0).mixing(modality),
], ids=["branching", "kernels", "plan", "cond", "tuples", "root_posterior",
        "exact_conditional_root", "sample_marginal_leaves", "score_features", "mixing"])
def test_unknown_modality_raises(ref_model, ref_table, call, modality):
    """A modality other than "im" or "tx" is an error, never the text tree."""
    with pytest.raises(ModelError, match="modality must be 'im' or 'tx'"):
        call(ref_model, ref_table, modality)
