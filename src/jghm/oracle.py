"""Brute-force ground truth on tiny instances.

Everything here works in the probability domain over exhaustive leaf-tuple
tables and never calls the message-passing engine: it is the independent
verification authority for the BP routines and the risk evaluators.

Only `enumerate_joint` enumerates, and it refuses (BudgetExceeded) beyond
its budget; every exact quantity below reads the `JointTable` it returns.

Leaf tuples are encoded as mixed-radix integers with leaf 1 most
significant, matching the canonical leaf numbering. A table axis over S^d
tuples therefore reshapes to (S,) * d, one axis per leaf, so a prefix of
leaves selects one contiguous block: the oracle indexes by reshapes, not
by loops over leaves or states.
"""

from dataclasses import dataclass

import numpy as np

from .model import JghmModel, ModelError, _checked_prefix, by_modality

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "JointTable",
    "enumerate_joint",
    "config_count",
    "kl_rows",
    "mi_from_joint",
    "exact_conditional_root",
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
    """All S^d leaf assignments (1-based states), in index order. The copy
    is C-ordered: the BLAS products that read the tuples round by layout."""
    return np.indices((n_states,) * d).reshape(d, -1).T.copy() + 1


def encode_leaves(leaves: np.ndarray, n_states: int) -> np.ndarray:
    """Mixed-radix index of a 1-based leaf tuple (batch-aware), exact in int64."""
    leaves = np.asarray(leaves, dtype=np.int64)
    return (leaves - 1) @ n_states ** np.arange(leaves.shape[-1] - 1, -1, -1)


def _tree_conditional(model: JghmModel, modality: str) -> np.ndarray:
    """P(all leaves | root state): (S, S^d), one kernel product per level."""
    S = model.n_states
    table = np.eye(S)  # P(subtree of a level-L node | its own state)
    for level in reversed(model.kernels(modality)):
        ranks = level @ table  # (m, S, block): P(rank-k child subtree | parent state)
        table = ranks[0]
        for v in ranks[1:]:
            table = (table[:, :, None] * v[:, None, :]).reshape(S, -1)
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
        return by_modality(modality, self.cond_im, self.cond_tx)

    def tuples(self, modality: str) -> np.ndarray:
        return by_modality(modality, self.tuples_im, self.tuples_tx)

    def index(self, modality: str, leaves) -> np.ndarray:
        """Row of each leaf tuple (batch-aware) in this modality's tables; a
        tuple of another length, a non-integer dtype or a state outside
        [1, S] raises ModelError."""
        leaves, d, S = np.asarray(leaves), self.tuples(modality).shape[1], self.n_states
        if leaves.shape[-1:] != (d,):
            got = f"shape {leaves.shape}"
        elif leaves.size and not np.issubdtype(leaves.dtype, np.integer):
            got = f"dtype {leaves.dtype}"
        elif leaves.size and not (leaves.min() >= 1 and leaves.max() <= S):
            got = f"states {leaves.min()}..{leaves.max()}"
        else:
            return encode_leaves(leaves, S)
        raise ModelError(f"{modality} leaves must be tuples of {d} states in [1, {S}], got {got}")


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
        raise ModelError("leaves have zero probability under the model")
    return w / total


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
    joint = by_modality(modality, table.joint, table.joint.T)
    ids, n_fibers = encoder_fibers(encoder, table.tuples(modality), joint.sum(axis=1))
    agg = np.zeros((n_fibers, joint.shape[1]))
    np.add.at(agg, ids, joint)
    return ids, joint, agg


def exact_suff_encoder(table: JointTable, encoder, modality: str) -> float:
    """Expected KL information loss of conditioning on the encoder output
    instead of the raw leaves."""
    ids, joint, agg = _fiber_joint(table, modality, encoder)
    return _expected_kl(joint, agg[ids])


def exact_mi_encoder(table: JointTable, encoder, modality: str) -> float:
    """MI between the encoder output and the other modality's leaves."""
    return mi_from_joint(_fiber_joint(table, modality, encoder)[2])


def exact_suff_score(table: JointTable, score) -> float:
    """Sufficiency of a similarity score via its induced joint law.

    The score induces P_hat(x_im, x_tx) proportional to
    exp(score) * P(x_im) * P(x_tx); both conditional KL terms are summed.
    """
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


def exact_denoiser(table: JointTable, z: np.ndarray, t: float, x_tx) -> np.ndarray:
    """E[x_im | z_t, x_tx] by enumeration with Gaussian leaf densities."""
    p_cond = table.joint[:, table.index("tx", x_tx)]
    if p_cond.sum() == 0:
        raise ModelError("text leaves have zero probability under the model")
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
    result is P(x_tx,i+1 | context, prefix) for the given observed prefix,
    which must hold at most d_tx - 1 integer states in [1, S] (else
    ModelError); the empty prefix may have any dtype.
    """
    S = table.n_states
    prefix = _checked_prefix(prefix, table.tuples_tx.shape[1], S)
    out = weights.reshape(S ** len(prefix), S, -1)[encode_leaves(prefix, S)].sum(-1)
    total = out.sum()
    if total == 0:
        raise ModelError("prefix has zero probability in the conditioned law")
    return out / total


def exact_next_token(table: JointTable, x_im, prefix) -> np.ndarray:
    """P(x_tx,i+1 | x_im, prefix) by enumeration."""
    i_img = table.index("im", x_im)
    return next_token_from_weights(table, table.joint[i_img], prefix)
