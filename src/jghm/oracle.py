"""Brute-force ground truth on tiny instances.

Everything here works in the probability domain over exhaustive leaf-tuple
tables and never calls the message-passing engine: it is the independent
verification authority for the BP routines and the risk evaluators.

Leaf tuples are encoded as mixed-radix integers with leaf 1 most
significant, matching the canonical leaf numbering.
"""

from dataclasses import dataclass

import numpy as np

from .model import JghmModel

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "JointTable",
    "enumerate_joint",
    "config_count",
    "kl_rows",
    "mi_from_joint",
    "exact_conditional_root",
    "exact_mutual_information",
    "encoder_fibers",
    "exact_suff_encoder",
    "exact_mi_encoder",
    "exact_suff_score",
    "exact_denoiser",
    "exact_next_token",
]

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(ValueError):
    """The instance is too large for exhaustive enumeration."""


def config_count(topology) -> int:
    """Number of full node configurations S^(total nodes), as an exact int."""
    return topology.n_states ** topology.total_nodes()


def _assert_budget(topology, budget):
    if config_count(topology) > budget:
        raise BudgetExceeded(f"{topology.n_states}^{topology.total_nodes()} node configurations "
                             f"exceed the enumeration budget {budget}")


def all_leaf_tuples(d: int, n_states: int) -> np.ndarray:
    """All S^d leaf assignments (1-based states), in index order."""
    grids = np.meshgrid(*[np.arange(1, n_states + 1)] * d, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def encode_leaves(leaves: np.ndarray, n_states: int) -> np.ndarray:
    """Mixed-radix index of a 1-based leaf tuple (batch-aware)."""
    leaves = np.asarray(leaves, dtype=np.int64)
    idx = np.zeros(leaves.shape[:-1], dtype=np.int64)
    for v in range(leaves.shape[-1]):
        idx = idx * n_states + (leaves[..., v] - 1)
    return idx


def _tree_conditional(model: JghmModel, modality: str) -> np.ndarray:
    """P(all leaves | root state): (S, S^d), by exhaustive level merging."""
    S = model.n_states
    table = np.eye(S)  # P(subtree of a level-L node | its own state)
    for level_kernels in reversed(model.kernels(modality)):
        merged = None
        for kernel in level_kernels:
            v = kernel @ table  # (S, block): P(child subtree | parent state)
            merged = v if merged is None else (merged[:, :, None] * v[:, None, :]).reshape(S, -1)
        table = merged
    return table


@dataclass(frozen=True)
class JointTable:
    """Dense joint law of the leaf pair plus per-tree conditionals."""

    n_states: int
    prior: np.ndarray
    cond_im: np.ndarray  # (S, N_im): P(image leaves | root)
    cond_tx: np.ndarray  # (S, N_tx): P(text leaves | root)
    joint: np.ndarray  # (N_im, N_tx)
    tuples_im: np.ndarray  # (N_im, d_im), 1-based states
    tuples_tx: np.ndarray

    @property
    def p_im(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def p_tx(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def cond(self, modality: str) -> np.ndarray:
        return self.cond_im if modality == "im" else self.cond_tx

    def tuples(self, modality: str) -> np.ndarray:
        return self.tuples_im if modality == "im" else self.tuples_tx

    def index(self, modality: str, leaves) -> np.ndarray:
        return encode_leaves(leaves, self.n_states)


def enumerate_joint(model: JghmModel, budget: int = DEFAULT_BUDGET) -> JointTable:
    """Exhaustive joint law of (image leaves, text leaves).

    Sums the product of the root prior and kernel entries over all node
    assignments, accumulating hidden levels early; raises BudgetExceeded
    instead of approximating when the instance is too large.
    """
    _assert_budget(model.topology, budget)
    cond_im = _tree_conditional(model, "im")
    cond_tx = _tree_conditional(model, "tx")
    joint = cond_im.T @ (model.root_prior[:, None] * cond_tx)
    return JointTable(
        n_states=model.n_states,
        prior=model.root_prior,
        cond_im=cond_im,
        cond_tx=cond_tx,
        joint=joint,
        tuples_im=all_leaf_tuples(model.topology.d_im, model.n_states),
        tuples_tx=all_leaf_tuples(model.topology.d_tx, model.n_states),
    )


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) in nats along the last axis; 0 log 0 = 0, positive mass on
    a q-null cell = inf."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / q), 0.0)
    # KL is nonnegative; tiny negative totals are floating-point noise
    return np.maximum(terms.sum(axis=-1), 0.0)


def _expected_kl(joint: np.ndarray, weights: np.ndarray) -> float:
    """sum_r mass_r * KL(joint_r / mass_r || q_r) over the rows r of a joint
    matrix with positive mass, where q_r is row r of `weights` normalized."""
    mass = joint.sum(axis=1)
    rows = mass > 0
    p, q = joint[rows] / mass[rows, None], weights[rows]
    return float(mass[rows] @ kl_rows(p, q / q.sum(axis=1, keepdims=True)))


def mi_from_joint(joint: np.ndarray) -> float:
    """Mutual information of a dense joint probability matrix, in nats."""
    return _expected_kl(joint, np.broadcast_to(joint.sum(axis=0), joint.shape))


def exact_conditional_root(table: JointTable, modality: str, leaves) -> np.ndarray:
    """P(root | leaves) by Bayes rule over the enumerated tree conditional."""
    idx = table.index(modality, leaves)
    w = table.prior * table.cond(modality)[:, idx]
    total = w.sum()
    if total == 0:
        raise ValueError("leaves have zero probability under the model")
    return w / total


def exact_mutual_information(table: JointTable) -> float:
    return mi_from_joint(table.joint)


def encoder_fibers(encoder, tuples: np.ndarray, mass: np.ndarray):
    """Group leaf tuples by quantized encoder output.

    Returns (fiber_id per tuple, number of fibers). Two tuples of positive
    `mass` share a fiber iff their encoder outputs agree exactly after
    quantization. Tuples of zero mass are never encoded (inference on them
    has no possible state); they share one extra fiber of zero mass.
    """
    live = mass > 0
    outputs = np.asarray(encoder(tuples[live])).reshape(int(live.sum()), -1)
    _, live_ids = np.unique(outputs, axis=0, return_inverse=True)
    n_fibers = int(live_ids.max()) + 1
    ids = np.full(len(tuples), n_fibers)
    ids[live] = live_ids.reshape(-1)
    return ids, n_fibers + int(not live.all())


def _fiber_joint(table: JointTable, modality: str, encoder):
    """Aggregate the joint over encoder fibers of one modality.

    Returns (fiber ids, this modality's joint with the other, fiber-level
    joint with the other modality).
    """
    joint = table.joint if modality == "im" else table.joint.T
    ids, n_fibers = encoder_fibers(encoder, table.tuples(modality), joint.sum(axis=1))
    agg = np.zeros((n_fibers, joint.shape[1]))
    np.add.at(agg, ids, joint)
    return ids, joint, agg


def exact_suff_encoder(model: JghmModel, encoder, modality: str, table: JointTable = None,
                       budget: int = DEFAULT_BUDGET) -> float:
    """Expected KL information loss of conditioning on the encoder output
    instead of the raw leaves."""
    if table is None:
        table = enumerate_joint(model, budget)
    ids, joint, agg = _fiber_joint(table, modality, encoder)
    return _expected_kl(joint, agg[ids])


def exact_mi_encoder(model: JghmModel, encoder, modality: str, table: JointTable = None,
                     budget: int = DEFAULT_BUDGET) -> float:
    """MI between the encoder output and the other modality's leaves."""
    if table is None:
        table = enumerate_joint(model, budget)
    return mi_from_joint(_fiber_joint(table, modality, encoder)[2])


def exact_suff_score(model: JghmModel, score, table: JointTable = None,
                     budget: int = DEFAULT_BUDGET) -> float:
    """Sufficiency of a similarity score via its induced joint law.

    The score induces P_hat(x_im, x_tx) proportional to
    exp(score) * P(x_im) * P(x_tx); both conditional KL terms are summed.
    """
    if table is None:
        table = enumerate_joint(model, budget)
    scores = score_matrix(score, table)
    with np.errstate(over="raise"):
        induced = np.exp(scores) * np.outer(table.p_im, table.p_tx)
    return _expected_kl(table.joint, induced) + _expected_kl(table.joint.T, induced.T)


def score_matrix(score, table: JointTable) -> np.ndarray:
    """Evaluate a pair score on every (image tuple, text tuple) combination
    whose tuples both have positive marginal mass; every other pair, which
    has no possible root state, scores -inf."""
    rows, cols = np.flatnonzero(table.p_im > 0), np.flatnonzero(table.p_tx > 0)
    im = np.repeat(table.tuples_im[rows], len(cols), axis=0)
    tx = np.tile(table.tuples_tx[cols], (len(rows), 1))
    scores = np.full(table.joint.shape, -np.inf)
    scores[np.ix_(rows, cols)] = np.asarray(score(im, tx)).reshape(len(rows), len(cols))
    return scores


def exact_denoiser(model: JghmModel, z: np.ndarray, t: float, x_tx, table: JointTable = None,
                   budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """E[x_im | z_t, x_tx] by enumeration with Gaussian leaf densities."""
    if table is None:
        table = enumerate_joint(model, budget)
    p_cond = table.joint[:, table.index("tx", x_tx)]
    if p_cond.sum() == 0:
        raise ValueError("text leaves have zero probability under the model")
    x = table.tuples_im.astype(float)
    return _gaussian_tilted_mean(p_cond, np.asarray(z, dtype=float), t, x)


def _gaussian_tilted_mean(weights: np.ndarray, z: np.ndarray, t: float, x: np.ndarray):
    """E[x | z = t x + sqrt(t) g] where x ranges over the rows of `x` with
    prior weights `weights` (positive mass per row of `weights` and `z`)."""
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    if t > 0:
        # expanded Gaussian exponent <z, x> - t ||x||^2 / 2 (constant dropped)
        logw = logw + z @ x.T - t * np.sum(x**2, axis=1) / 2.0
    logw = logw - logw.max(axis=-1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ x


def next_token_from_weights(table: JointTable, weights: np.ndarray, prefix) -> np.ndarray:
    """Next-token law from unnormalized weights over all text tuples.

    `weights[j]` must be proportional to P(x_tx = tuple_j | context); the
    result is P(x_tx,i+1 | context, prefix) for the given observed prefix.
    """
    prefix = np.asarray(prefix, dtype=np.int64).reshape(-1)
    i = len(prefix)
    tuples = table.tuples_tx
    mask = np.ones(len(tuples), dtype=bool)
    for v in range(i):
        mask &= tuples[:, v] == prefix[v]
    out = np.zeros(table.n_states)
    for s in range(1, table.n_states + 1):
        out[s - 1] = weights[mask & (tuples[:, i] == s)].sum()
    total = out.sum()
    if total == 0:
        raise ValueError("prefix has zero probability in the conditioned law")
    return out / total


def exact_next_token(model: JghmModel, x_im, prefix, table: JointTable = None,
                     budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """P(x_tx,i+1 | x_im, prefix) by enumeration."""
    if table is None:
        table = enumerate_joint(model, budget)
    i_img = table.index("im", x_im)
    return next_token_from_weights(table, table.joint[i_img], prefix)
