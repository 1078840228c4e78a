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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

__all__ = [
    "TreeTopology",
    "JghmModel",
    "TreePlan",
    "ModelGenSpec",
    "ModelError",
    "leaf_index",
    "validate_kernel",
    "validate_model",
    "make_pflip_model",
    "model_to_json",
    "model_from_json",
    "effective_b_psi",
]

ROW_SUM_TOL = 1e-12
MASS_TOL = 1e-12

MODALITIES = ("im", "tx")


class ModelError(ValueError):
    """Raised when a model or topology violates its structural invariants."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class TreeTopology:
    """Shape of the two trees: depth, per-level branching, state count."""

    depth: int
    m_im: tuple
    m_tx: tuple
    n_states: int

    def __post_init__(self):
        # counts are integers (numpy ones included), never bools or floats,
        # so a value is never truncated on its way in
        def integral(v):
            return isinstance(v, numbers.Integral) and not isinstance(v, bool)

        for name in ("depth", "n_states"):
            value = getattr(self, name)
            if not integral(value):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("m_im", "m_tx"):
            value = getattr(self, name)
            ms = tuple(value) if np.iterable(value) else None
            if ms is None or not all(integral(m) for m in ms):
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
        return self.m_im if modality == "im" else self.m_tx

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


def leaf_index(topology: TreeTopology, modality: str, path) -> int:
    """Map a rank path (iota_1, ..., iota_L) to the canonical leaf number.

    Ranks are 1-based; the returned index lies in {1..d}. The numbering is
    mixed-radix with the level-1 rank most significant, so sibling subtrees
    occupy contiguous index blocks.
    """
    ms = topology.branching(modality)
    path = tuple(int(i) for i in path)
    if len(path) != topology.depth:
        raise ModelError(f"rank path must have {topology.depth} entries, got {len(path)}")
    for level, (rank, m) in enumerate(zip(path, ms), start=1):
        if not 1 <= rank <= m:
            raise ModelError(f"rank {rank} out of range [1, {m}] at level {level}")
    index = 0
    for rank, m in zip(path, ms):
        index = index * m + (rank - 1)
    return index + 1


def validate_kernel(kernel: np.ndarray, n_states: int):
    """Return the list of invariant violations for one transition kernel."""
    problems = []
    if kernel.shape != (n_states, n_states):
        return [f"kernel shape {kernel.shape} != ({n_states}, {n_states})"]
    if not np.all(np.isfinite(kernel)):
        problems.append("kernel has non-finite entries")
        return problems
    if np.any(kernel < 0):
        problems.append("kernel has negative entries")
    row_sums = kernel.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        s = row_sums[bad][0]
        problems.append(f"kernel row sums to {s!r}, expected 1 within {ROW_SUM_TOL}")
    return problems


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TreePlan:
    """The tables the sampler and BP read for one tree, one entry per level
    1..L; built once per model and read-only.

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
    """

    cum: tuple
    down: tuple
    up: tuple
    columns: tuple


def _tree_plan(levels, S: int) -> TreePlan:
    cum, down, up, columns = [], [], [], []
    for level in levels:
        m = len(level)
        cum.append(_frozen(np.cumsum(np.stack(level), axis=2)))
        d, u = np.zeros((m * S, m * S)), np.zeros((m * S, m * S))
        for j, kernel in enumerate(level):
            d[j * S:(j + 1) * S, j * S:(j + 1) * S] = kernel.T
            u[j * S:(j + 1) * S, j * S:(j + 1) * S] = kernel
        down.append(_frozen(d))
        up.append(_frozen(u))
        columns.append(_frozen(np.concatenate([kernel.T for kernel in level])))
    return TreePlan(tuple(cum), tuple(down), tuple(up), tuple(columns))


@dataclass(frozen=True)
class JghmModel:
    """A full parameterization: topology, root prior, per-level kernels.

    ``kernels_im[l][i]`` is the kernel for children of rank i+1 at level l+1
    of the image tree (likewise ``kernels_tx``). Instances are immutable;
    all arrays are frozen at construction, and so is the plan of tables the
    sampler and BP read (``plan(modality)``, ``root_cum``: the cumulative
    root prior).
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
        S = self.topology.n_states
        prior = _frozen(np.asarray(self.root_prior, dtype=float).copy())
        object.__setattr__(self, "root_prior", prior)
        object.__setattr__(self, "root_cum", _frozen(np.cumsum(prior)))
        for modality in MODALITIES:
            levels = []
            for level_idx, level in enumerate(getattr(self, f"kernels_{modality}"), start=1):
                if not len(level):
                    raise ModelError(f"kernels_{modality} level {level_idx} has no kernels")
                ks = []
                for rank, k in enumerate(level, start=1):
                    k = _frozen(np.asarray(k, dtype=float).copy())
                    if k.shape != (S, S):
                        raise ModelError(f"kernels_{modality}[{level_idx}][{rank}]: "
                                         f"kernel shape {k.shape} != ({S}, {S})")
                    ks.append(k)
                levels.append(tuple(ks))
            object.__setattr__(self, f"kernels_{modality}", tuple(levels))
            object.__setattr__(self, f"plan_{modality}", _tree_plan(levels, S))

    def kernels(self, modality: str) -> tuple:
        return self.kernels_im if modality == "im" else self.kernels_tx

    def plan(self, modality: str) -> TreePlan:
        return self.plan_im if modality == "im" else self.plan_tx

    @property
    def n_states(self) -> int:
        return self.topology.n_states

    def b_psi(self) -> float:
        return effective_b_psi(self)


def effective_b_psi(model: JghmModel) -> float:
    """Smallest B with 1/B <= entry <= B over the prior and all kernels.

    Models containing exact zeros (e.g. p_flip = 0) have no finite bound;
    returns inf for those.
    """
    lo, hi = np.inf, 0.0
    arrays = [model.root_prior]
    for modality in MODALITIES:
        for level in model.kernels(modality):
            arrays.extend(level)
    for a in arrays:
        lo = min(lo, float(a.min()))
        hi = max(hi, float(a.max()))
    if lo <= 0.0:
        return np.inf
    return max(hi, 1.0 / lo)


def validate_model(model: JghmModel) -> float:
    """Check every structural invariant; return the effective bound B_psi.

    Raises ModelError listing all violations. Kernels with exact-zero
    entries are legal (permutation models) but trigger a warning because
    the boundedness budget becomes infinite.
    """
    topo = model.topology
    S = topo.n_states
    problems = []

    prior = model.root_prior
    if prior.shape != (S,):
        problems.append(f"root_prior shape {prior.shape} != ({S},)")
    else:
        if np.any(prior <= 0):
            problems.append("root_prior must be entrywise > 0")
        if abs(float(prior.sum()) - 1.0) > MASS_TOL:
            problems.append(f"root_prior sums to {prior.sum()!r}, expected 1")

    for modality in MODALITIES:
        ms = topo.branching(modality)
        levels = model.kernels(modality)
        if len(levels) != topo.depth:
            problems.append(f"kernels_{modality} must have {topo.depth} levels")
            continue
        for level_idx, (level, m) in enumerate(zip(levels, ms), start=1):
            if len(level) != m:
                problems.append(
                    f"kernels_{modality} level {level_idx} must have {m} kernels, got {len(level)}"
                )
                continue
            for rank, kernel in enumerate(level, start=1):
                for p in validate_kernel(kernel, S):
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
    entries. P and G depend only on (seed, modality, level, rank), so a
    p_flip sweep with a fixed seed varies only the mixing weight.

    The mixing weight may differ per tree (p_flip_im / p_flip_tx override
    p_flip), e.g. to make one modality near-deterministic.
    """

    topology: TreeTopology
    p_flip: float
    seed: int
    gaussian_scale: float = 1.0
    p_flip_im: float = None
    p_flip_tx: float = None

    def __post_init__(self):
        for name, p in (("p_flip", self.p_flip), ("p_flip_im", self.p_flip_im),
                        ("p_flip_tx", self.p_flip_tx)):
            if p is None and name != "p_flip":
                continue  # no per-tree override
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise ModelError(f"{name} must be a real number in [0, 1], got {p!r}")

    def mixing(self, modality: str) -> float:
        override = self.p_flip_im if modality == "im" else self.p_flip_tx
        return self.p_flip if override is None else override


def _softmax_rows(g: np.ndarray) -> np.ndarray:
    z = np.exp(g - g.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _pflip_kernel(spec: ModelGenSpec, modality: str, level: int, rank: int) -> np.ndarray:
    S = spec.topology.n_states
    p = spec.mixing(modality)
    rng = stream(spec.seed, "pflip-kernel", modality, level, rank)
    perm = rng.permutation(S)
    g = rng.standard_normal((S, S)) * spec.gaussian_scale
    pi = np.zeros((S, S))
    pi[np.arange(S), perm] = 1.0
    return (1.0 - p) * pi + p * _softmax_rows(g)


def make_pflip_model(spec: ModelGenSpec) -> JghmModel:
    """Generate the deterministic kernel-family model for a spec.

    Pure function of the spec: equal specs produce bit-identical models.
    The root prior is uniform.
    """
    topo = spec.topology
    S = topo.n_states
    kernels = {}
    for modality in MODALITIES:
        levels = []
        for level, m in enumerate(topo.branching(modality), start=1):
            levels.append(
                tuple(_pflip_kernel(spec, modality, level, rank) for rank in range(1, m + 1))
            )
        kernels[modality] = tuple(levels)
    metadata = {
        "family": "pflip",
        "p_flip": float(spec.p_flip),
        "seed": int(spec.seed),
        "gaussian_scale": float(spec.gaussian_scale),
    }
    if spec.p_flip_im is not None:
        metadata["p_flip_im"] = float(spec.p_flip_im)
    if spec.p_flip_tx is not None:
        metadata["p_flip_tx"] = float(spec.p_flip_tx)
    return JghmModel(
        topology=topo,
        root_prior=np.full(S, 1.0 / S),
        kernels_im=kernels["im"],
        kernels_tx=kernels["tx"],
        metadata=metadata,
    )


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
        "kernels_im": [[k.tolist() for k in level] for level in model.kernels_im],
        "kernels_tx": [[k.tolist() for k in level] for level in model.kernels_tx],
        "metadata": model.metadata,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _field(doc: dict, name: str, read):
    """read(doc[name]); a missing or malformed field raises ModelError naming it."""
    if name not in doc:
        raise ModelError(f"model has no {name!r} field")
    try:
        return read(doc[name])
    except KeyError as e:
        raise ModelError(f"model field {name!r} has no {e} entry") from e
    except (TypeError, ValueError) as e:  # ModelError included
        raise ModelError(f"model field {name!r}: {e}") from e


def _kernels_from_json(levels) -> tuple:
    return tuple(tuple(np.array(k, dtype=float) for k in level) for level in levels)


def model_from_json(text: str) -> JghmModel:
    """Parse a `model_to_json` document. Anything that is not one, a
    malformed field included, raises ModelError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"model is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ModelError(f"model must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != 1:
        raise ModelError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    return JghmModel(
        topology=_field(doc, "topology", lambda t: TreeTopology(
            depth=t["depth"], m_im=t["m_im"], m_tx=t["m_tx"], n_states=t["n_states"])),
        root_prior=_field(doc, "root_prior", lambda p: np.array(p, dtype=float)),
        kernels_im=_field(doc, "kernels_im", _kernels_from_json),
        kernels_tx=_field(doc, "kernels_tx", _kernels_from_json),
        metadata=doc.get("metadata", {}),
    )
