"""Two-tree hierarchical model definition, validation and generation.

A model couples two rooted trees (an "image" tree and a "text" tree) that
share their root variable. Every node carries a state in {1..S}; each child
is drawn from a row-stochastic S x S kernel indexed by (modality, level,
child rank). The root is drawn from an explicit prior.

States are 1-based in every public structure and file format; kernel rows
and columns are 0-based internally (state s <-> index s-1).
"""

import json
import numbers
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .rng import stream

__all__ = [
    "TreeTopology",
    "JghmModel",
    "TreePlan",
    "ModelGenSpec",
    "ModelError",
    "by_modality",
    "validate_kernel",
    "validate_model",
    "pflip_models",
    "make_pflip_model",
    "model_to_json",
    "model_from_json",
    "topology_from_json",
    "effective_b_psi",
]

ROW_SUM_TOL = 1e-12
MASS_TOL = 1e-12

MODALITIES = ("im", "tx")


def _integer(value) -> bool:
    """True for an integer, numpy ones included; bools and floats are not, so
    a count, a class or a seed is never truncated on its way in."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ModelError(ValueError):
    """Raised when a model or topology violates its structural invariants."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def by_modality(modality: str, im, tx):
    """`im` for the image tree, `tx` for the text tree; any other modality
    raises ModelError."""
    if modality not in MODALITIES:
        raise ModelError(f"modality must be 'im' or 'tx', got {modality!r}")
    return im if modality == "im" else tx


@dataclass(frozen=True)
class TreeTopology:
    """Shape of the two trees: depth, per-level branching, state count."""

    depth: int
    m_im: tuple
    m_tx: tuple
    n_states: int

    def __post_init__(self):
        for name in ("depth", "n_states"):
            value = getattr(self, name)
            if not _integer(value):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("m_im", "m_tx"):
            value = getattr(self, name)
            ms = tuple(value) if np.iterable(value) else None
            if ms is None or not all(_integer(m) for m in ms):
                raise ModelError(f"{name} must be a sequence of integers, got {value!r}")
            object.__setattr__(self, name, tuple(int(m) for m in ms))
        problems = []
        if self.depth < 1:
            problems.append(f"depth must be >= 1, got {self.depth}")
        if self.n_states < 2:
            problems.append(f"n_states must be >= 2, got {self.n_states}")
        for name, ms in (("m_im", self.m_im), ("m_tx", self.m_tx)):
            if len(ms) != self.depth:
                problems.append(f"{name} must list one branching factor per level")
            if any(m < 1 for m in ms):
                problems.append(f"{name} factors must be >= 1, got {ms}")
        if problems:
            raise ModelError(problems)

    def branching(self, modality: str) -> tuple:
        return by_modality(modality, self.m_im, self.m_tx)

    def level_sizes(self, modality: str) -> tuple:
        """Node counts per level 1..L (the root, level 0, always has 1)."""
        sizes, n = [], 1
        for m in self.branching(modality):
            n *= m
            sizes.append(n)
        return tuple(sizes)

    def n_leaves(self, modality: str) -> int:
        return self.level_sizes(modality)[-1]

    @property
    def d_im(self) -> int:
        return self.n_leaves("im")

    @property
    def d_tx(self) -> int:
        return self.n_leaves("tx")

    @property
    def m_first(self) -> int:
        """max of the two level-1 branching factors; drives the score bound."""
        return max(self.m_im[0], self.m_tx[0])

    def total_nodes(self) -> int:
        return 1 + sum(self.level_sizes("im")) + sum(self.level_sizes("tx"))


def _checked_prefix(prefix, d_tx: int, S: int) -> np.ndarray:
    """`prefix` as a flat array of at most d_tx - 1 integer states in [1, S],
    else ModelError; the empty prefix may have any dtype."""
    prefix = np.asarray(prefix).reshape(-1)
    i = len(prefix)
    if i > d_tx - 1:
        raise ModelError(f"prefix length {i} exceeds d_tx - 1 = {d_tx - 1}")
    if i and not np.issubdtype(prefix.dtype, np.integer):
        raise ModelError(f"prefix tokens must be integer states, got dtype {prefix.dtype}")
    if i and (prefix.min() < 1 or prefix.max() > S):
        raise ModelError(f"prefix values must lie in [1, {S}], got {prefix.min()}..{prefix.max()}")
    return prefix


def validate_kernel(kernel: np.ndarray):
    """Return the list of value-invariant violations for one transition
    kernel (JghmModel checks its shape)."""
    if not np.all(np.isfinite(kernel)):
        return ["kernel has non-finite entries"]
    problems = []
    if np.any(kernel < 0):
        problems.append("kernel has negative entries")
    row_sums = kernel.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        s = row_sums[bad][0]
        problems.append(f"kernel row sums to {float(s)}, expected 1 within {ROW_SUM_TOL}")
    return problems


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TreePlan:
    """The tables the sampler and BP read for one tree, one array per level
    1..L; built once per model from the kernel stacks and read-only.

    branching  the number of children per node at each level (m per level);
    ones       (S,) ones, the vector BP's totals are a matvec with.

    With m kernels of size S at a level:
      cum     (m, S, S)     cumulative rows of each rank's kernel, for
                            inverse-CDF draws;
      down    (m*S, m*S)    block diagonal of the rank kernels transposed
                            (child-to-parent messages);
      up      (m*S, m*S)    block diagonal of the rank kernels (parent to
                            child);
      columns (m*S, S)      the rank kernels transposed and stacked: row
                            j*S + x - 1 is the message of a rank-(j+1) child
                            observed in state x.

    A tree of depth >= 2 also has `leaf_table`: the message every leaf parent
    can send up, by its leaves' pattern and its rank, which BP gathers for
    large batches of observed leaves. It is built on first use, not here.
    """

    branching: tuple
    ones: np.ndarray
    cum: tuple
    down: tuple
    up: tuple
    columns: tuple

    @cached_property
    def leaf_table(self) -> tuple:
        """(messages, totals): what a leaf parent sends up, for every pattern
        of its m_L observed leaves; read-only, kept for the plan's lifetime.

        Pattern p numbers the leaves' states x_1..x_m in mixed radix, the
        rank-1 leaf most significant: p = sum_j (x_j - 1) S^(m - j). With c
        the product of the leaves' columns in rank order, totals[p] is c's
        total and row p * m_(L-1) + r of messages, shape (S^m * m_(L-1), S),
        is (c / totals[p]) @ K_r.T: the scaled message of a rank-(r+1) leaf
        parent to its parent (K_r that rank's level-(L-1) kernel). A pattern
        with total 0, an impossible leaf group, has nan rows.
        """
        m, m_up, S = self.branching[-1], self.branching[-2], len(self.ones)
        columns = self.columns[-1].reshape(m, S, S)
        patterns = np.indices((S,) * m).reshape(m, -1)
        c = columns[0][patterns[0]]
        for j in range(1, m):
            c *= columns[j][patterns[j]]
        totals = c @ self.ones
        with np.errstate(divide="ignore", invalid="ignore"):
            c /= totals[:, None]
        # column r*S + x - 1 of row i is K_r[x - 1, i]: every rank in one product
        kernels_t = self.columns[-2].reshape(m_up, S, S).transpose(1, 0, 2).reshape(S, m_up * S)
        return _frozen((c @ kernels_t).reshape(-1, S)), _frozen(totals)


def _tree_plan(levels, S: int) -> TreePlan:
    cum, down, up, columns = [], [], [], []
    for k in levels:  # one (m, S, S) stack per level
        m = len(k)
        with np.errstate(over="ignore"):  # entries near the float max; validate_model names them
            cum.append(_frozen(np.cumsum(k, axis=2)))
        u = np.zeros((m * S, m * S))
        u.reshape(m, S, m, S)[np.arange(m), :, np.arange(m), :] = k  # block (j, j) is k[j]
        up.append(_frozen(u))
        down.append(_frozen(u.T.copy()))  # the block diagonal of the k[j].T
        columns.append(_frozen(np.concatenate(k.transpose(0, 2, 1))))
    return TreePlan(tuple(len(k) for k in levels), _frozen(np.ones(S)),
                    tuple(cum), tuple(down), tuple(up), tuple(columns))


def _level(name: str, level_idx: int, level, m: int, S: int) -> np.ndarray:
    """One level as a fresh frozen (m, S, S) float array, else ModelError
    naming the first rank that is not S x S, or the level (not a sequence,
    or a wrong count)."""
    try:
        k = np.array(level, dtype=float)  # a copy: a frozen view of a writable base could change
        if k.shape == (m, S, S):
            return _frozen(k)
    except (TypeError, ValueError):  # ragged ranks or rows, or not numbers: named below
        pass
    try:
        level = list(level)
    except TypeError:
        raise ModelError(f"{name}[{level_idx}] must be a sequence of {m} kernels, "
                         f"got {type(level).__name__}") from None
    for rank, kernel in enumerate(level, start=1):
        try:
            shape = np.array(kernel, dtype=float).shape
        except (TypeError, ValueError):
            raise ModelError(f"{name}[{level_idx}][{rank}]: kernel is not a ({S}, {S}) "
                             f"array of numbers") from None
        if shape != (S, S):
            raise ModelError(f"{name}[{level_idx}][{rank}]: kernel shape {shape} != ({S}, {S})")
    raise ModelError(f"{name}[{level_idx}] must have {m} kernels, got {len(level)}")


@dataclass(frozen=True)
class JghmModel:
    """A full parameterization: topology, root prior, per-level kernels.

    ``kernels_im[l]`` is one (m, S, S) array, level l+1 of the image tree:
    ``kernels_im[l][i]`` is the kernel of its rank-(i+1) children (likewise
    ``kernels_tx``). Instances are immutable; all arrays are copied and
    frozen at construction, and so is the plan of tables the sampler and BP
    read (``plan(modality)``, ``root_cum``: the cumulative root prior).
    """

    topology: TreeTopology
    root_prior: np.ndarray
    kernels_im: tuple
    kernels_tx: tuple
    metadata: dict = field(default_factory=dict)
    root_cum: np.ndarray = field(init=False, repr=False, compare=False)
    plan_im: TreePlan = field(init=False, repr=False, compare=False)
    plan_tx: TreePlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # shapes are checked here, value invariants by validate_model
        topo, S = self.topology, self.topology.n_states
        prior = _frozen(np.asarray(self.root_prior, dtype=float).copy())
        if prior.shape != (S,):
            raise ModelError(f"root_prior shape {prior.shape} != ({S},)")
        object.__setattr__(self, "root_prior", prior)
        with np.errstate(over="ignore"):  # as in _tree_plan
            object.__setattr__(self, "root_cum", _frozen(np.cumsum(prior)))
        for modality in MODALITIES:
            name = f"kernels_{modality}"
            given = getattr(self, name)
            try:
                given = list(given)
            except TypeError:
                raise ModelError(f"{name} must be a sequence of {topo.depth} levels, "
                                 f"got {type(given).__name__}") from None
            if len(given) != topo.depth:
                raise ModelError(f"{name} must have {topo.depth} levels, got {len(given)}")
            levels = tuple(_level(name, level_idx, level, m, S) for level_idx, (level, m)
                           in enumerate(zip(given, topo.branching(modality)), start=1))
            object.__setattr__(self, name, levels)
            object.__setattr__(self, f"plan_{modality}", _tree_plan(levels, S))

    def kernels(self, modality: str) -> tuple:
        return by_modality(modality, self.kernels_im, self.kernels_tx)

    def plan(self, modality: str) -> TreePlan:
        return by_modality(modality, self.plan_im, self.plan_tx)

    @property
    def n_states(self) -> int:
        return self.topology.n_states


def effective_b_psi(model: JghmModel) -> float:
    """Smallest B with 1/B <= entry <= B over the prior and all kernels.

    Models containing exact zeros (e.g. p_flip = 0) have no finite bound;
    returns inf for those.
    """
    arrays = (model.root_prior, *model.kernels_im, *model.kernels_tx)
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    if lo <= 0.0:
        return np.inf
    return max(hi, 1.0 / lo)


def validate_model(model: JghmModel) -> float:
    """Check every value invariant (JghmModel checks the shapes); return the
    effective bound B_psi.

    Raises ModelError listing all violations. Kernels with exact-zero
    entries are legal (permutation models) but trigger a warning because
    the boundedness budget becomes infinite.
    """
    problems = []
    prior = model.root_prior
    if not np.all(prior > 0):  # nan included
        problems.append("root_prior must be entrywise > 0")
    if abs(float(prior.sum()) - 1.0) > MASS_TOL:
        problems.append(f"root_prior sums to {float(prior.sum())}, expected 1")
    for modality in MODALITIES:
        for level_idx, level in enumerate(model.kernels(modality), start=1):
            for rank, kernel in enumerate(level, start=1):
                for p in validate_kernel(kernel):
                    problems.append(f"kernels_{modality}[{level_idx}][{rank}]: {p}")

    if problems:
        raise ModelError(problems)

    b_psi = effective_b_psi(model)
    if not np.isfinite(b_psi):
        warnings.warn("model has zero entries: B_psi = inf", stacklevel=2)
    return b_psi


@dataclass(frozen=True)
class ModelGenSpec:
    """Recipe for the permutation/softmax kernel family.

    Each kernel is (1 - p_flip) * P + p_flip * softmax_rows(G) where P is a
    uniformly random permutation matrix and G has iid N(0, gaussian_scale^2)
    entries. P and softmax_rows(G) depend on (topology, seed,
    gaussian_scale) alone, so `pflip_models` draws them once and mixes every
    model that differs only in p_flip from them.

    The mixing weight may differ per tree (p_flip_im / p_flip_tx override
    p_flip), e.g. to make one modality near-deterministic. The seed is an
    integer in [-2**127, 2**127), the range of a stream key, and
    gaussian_scale a finite real; bools are neither.
    """

    topology: TreeTopology
    p_flip: float
    seed: int
    gaussian_scale: float = 1.0
    p_flip_im: float = None
    p_flip_tx: float = None

    def __post_init__(self):
        seed, scale = self.seed, self.gaussian_scale
        if not _integer(seed) or not -2**127 <= seed < 2**127:
            raise ModelError(f"seed must be an integer in [-2**127, 2**127), got {seed!r}")
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real) \
                or not abs(scale) <= sys.float_info.max:
            raise ModelError(f"gaussian_scale must be a finite real number, got {scale!r}")
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "gaussian_scale", float(scale))
        for name, p in (("p_flip", self.p_flip), ("p_flip_im", self.p_flip_im),
                        ("p_flip_tx", self.p_flip_tx)):
            if p is None and name != "p_flip":
                continue  # no per-tree override
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise ModelError(f"{name} must be a real number in [0, 1], got {p!r}")

    def mixing(self, modality: str) -> float:
        override = by_modality(modality, self.p_flip_im, self.p_flip_tx)
        return self.p_flip if override is None else override


def _softmax_rows(g: np.ndarray) -> np.ndarray:
    z = np.exp(g - g.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _level_draws(spec: ModelGenSpec, modality: str, level: int, m: int):
    """(P, softmax_rows(G)) of the m kernels of one level, each a read-only
    (m, S, S) stack; every rank draws from its own stream."""
    S = spec.topology.n_states
    pi, g = np.zeros((m, S, S)), np.empty((m, S, S))
    for rank in range(m):
        rng = stream(spec.seed, "pflip-kernel", modality, level, rank + 1)
        pi[rank, np.arange(S), rng.permutation(S)] = 1.0
        g[rank] = rng.standard_normal((S, S))
    return _frozen(pi), _frozen(_softmax_rows(g * spec.gaussian_scale))


def pflip_models(spec: ModelGenSpec):
    """p_flip -> the spec's model at that p_flip, with the spec's p_flip_im
    and p_flip_tx overrides; the spec's own p_flip is not read.

    P and softmax_rows(G) are drawn here, once, and each model mixes every
    level (1 - p) * P + p * softmax_rows(G) from them. The draws are
    read-only, so threads may build models concurrently. Models of equal
    specs are bit-identical, from one call or from two. A gaussian_scale
    whose draws overflow raises ModelError here; a p_flip that is not a
    probability raises it from the returned function. The root prior is
    uniform.
    """
    topo, S = spec.topology, spec.topology.n_states
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        draws = {modality: [_level_draws(spec, modality, level, m)
                            for level, m in enumerate(topo.branching(modality), start=1)]
                 for modality in MODALITIES}
    # a finite softmax row stays finite in every mix; a nan stays nan even at p = 0
    if not all(np.isfinite(soft).all() for levels in draws.values() for _, soft in levels):
        raise ModelError(f"gaussian_scale: {spec.gaussian_scale!r} overflows the kernel draws")

    def model(p_flip) -> JghmModel:
        mix = replace(spec, p_flip=p_flip)
        kernels = {}
        for modality in MODALITIES:
            p = mix.mixing(modality)
            kernels[modality] = tuple((1.0 - p) * pi + p * soft for pi, soft in draws[modality])
        metadata = {
            "family": "pflip",
            "p_flip": float(mix.p_flip),
            "seed": mix.seed,
            "gaussian_scale": mix.gaussian_scale,
        }
        if mix.p_flip_im is not None:
            metadata["p_flip_im"] = float(mix.p_flip_im)
        if mix.p_flip_tx is not None:
            metadata["p_flip_tx"] = float(mix.p_flip_tx)
        return JghmModel(
            topology=topo,
            root_prior=np.full(S, 1.0 / S),
            kernels_im=kernels["im"],
            kernels_tx=kernels["tx"],
            metadata=metadata,
        )

    return model


def make_pflip_model(spec: ModelGenSpec) -> JghmModel:
    """The spec's model: `pflip_models(spec)` at the spec's p_flip."""
    return pflip_models(spec)(spec.p_flip)


def model_to_json(model: JghmModel) -> str:
    """Serialize to a canonical JSON document (bit-exact round trip)."""
    topo = model.topology
    doc = {
        "schema_version": 1,
        "topology": {
            "depth": topo.depth,
            "m_im": list(topo.m_im),
            "m_tx": list(topo.m_tx),
            "n_states": topo.n_states,
        },
        "root_prior": model.root_prior.tolist(),
        "kernels_im": [level.tolist() for level in model.kernels_im],
        "kernels_tx": [level.tolist() for level in model.kernels_tx],
        "metadata": model.metadata,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _field(doc: dict, name: str, read):
    """read(doc[name]); a missing or malformed field raises ModelError naming it."""
    if name not in doc:
        raise ModelError(f"model has no {name!r} field")
    try:
        return read(doc[name])
    except (TypeError, ValueError) as e:  # ModelError included
        raise ModelError(f"model field {name!r}: {e}") from e


def _numbers(value, depth: int):
    """`value`, if it nests JSON lists `depth` deep around numbers that fit a
    float; any other type (a bool, string, object or null) raises ModelError."""
    if depth:
        if not isinstance(value, list):
            raise ModelError(f"expected a list, got {value!r}")
        for v in value:
            _numbers(v, depth - 1)
    elif isinstance(value, bool) or not isinstance(value, (int, float)) \
            or isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ModelError(f"expected a number, got {value!r}")
    return value


def topology_from_json(t) -> TreeTopology:
    """Read the topology object of a config or a model file. A non-object or
    a missing key raises ModelError; TreeTopology checks every value."""
    if not isinstance(t, dict):
        raise ModelError(f"topology must be an object, got {t!r}")
    missing = [key for key in ("depth", "m_im", "m_tx", "n_states") if key not in t]
    if missing:
        raise ModelError(f"topology is missing {', '.join(map(repr, missing))}")
    return TreeTopology(depth=t["depth"], m_im=t["m_im"], m_tx=t["m_tx"], n_states=t["n_states"])


def model_from_json(text: str) -> JghmModel:
    """Parse a `model_to_json` document. Anything that is not one, a
    malformed field or kernel level included, raises ModelError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"model is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ModelError(f"model must be a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if type(version) is not int or version != 1:  # neither true nor 1.0 is a version
        raise ModelError(f"unsupported model schema_version {version!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelError(f"model field 'metadata' must be an object, got {metadata!r}")
    return JghmModel(
        topology=_field(doc, "topology", topology_from_json),
        root_prior=_field(doc, "root_prior", lambda p: np.array(_numbers(p, 1), dtype=float)),
        kernels_im=_field(doc, "kernels_im", lambda k: _numbers(k, 4)),
        kernels_tx=_field(doc, "kernels_tx", lambda k: _numbers(k, 4)),
        metadata=metadata,
    )
