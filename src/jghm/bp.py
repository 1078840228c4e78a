"""Exact message passing on the two-tree model.

One scaled probability-domain engine (the scaled forward-backward recipe,
Rabiner 1989) does every sweep. Messages are probability vectors, and after
each level every node is divided by its total, so nothing underflows with
depth and the root and leaf beliefs come out normalized. Observed leaves
enter by a gather: the message of leaf x to its parent is kernel column x.
Above the leaves each level is one matmul with the per-rank kernels followed
by a product over siblings. A child's cavity (the product of its siblings'
messages) is built from prefix and suffix products, never by dividing a
zero out, so exact zeros encode impossible states and a permutation-kernel
model (p_flip = 0) stays exact. A node whose message is all zero means the
evidence is impossible under the model, and raises ModelError. The block
kernels and leaf columns are read from the model's plan (`JghmModel.plan`),
built once per model. `root_log_posterior` enters the leaves rank by rank
and never holds all leaf messages at once.

There is one down pass, and it stops at level 1; each caller forms the root
itself. Root posteriors multiply the level-1 messages and rescale them; the
denoiser and the next-token passes never form the root product. The text
likelihood (`text_log_likelihood`) takes it unscaled against the image
posterior and adds back the log of every total the pass divided out, which
is the likelihood of the scaled forward recipe. By the chain rule its
negative is the sum of the teacher-forced next-token NLLs, so the vlm risk
needs no next-token posteriors.

Teacher-forced next-token prediction (`next_token_posteriors_parallel`) is
the down pass plus one up pass over complete messages only: the message
into a node from outside its subtree, given every token before the subtree,
is its parent's such message times the complete messages of its earlier
siblings (an exclusive prefix product, the same one the cavities use), so
every level costs one row per node.

Log-domain beliefs appear only at the API and in exported messages: a
`Belief` is a length-S vector of log-weights, normalized so its maximum entry
is 0, with -inf for impossible states. `downsweep` and `upsweep` return their
message stacks in that form, taking the log once at the boundary. Message
arrays hold one row per node of a level and broadcast over arbitrary leading
batch axes.

Level conventions: the root is level 0; leaves are level L. Downsweeps
aggregate leaf evidence toward the root; upsweeps push root-level beliefs
back to the leaves to obtain per-leaf posteriors. Children of node p at level
l - 1 are the rows p*m .. p*m + m - 1 of level l, in rank order.
"""

from dataclasses import dataclass

import numpy as np

from .model import JghmModel, ModelError
from .sampler import NoisyImage, check_time

__all__ = [
    "Belief",
    "MessageStack",
    "normalize",
    "evidence_from_states",
    "leaf_evidence_from_noise",
    "downsweep",
    "upsweep",
    "root_log_posterior",
    "root_posterior",
    "text_log_likelihood",
    "optimal_score",
    "readout_bound",
    "bayes_denoiser",
    "conditioned_denoiser",
    "next_token_posterior_bp",
    "next_token_posteriors_parallel",
    "posterior_floor",
]

Belief = np.ndarray  # (..., S) log-domain, max entry 0 after normalize

NEG_INF = -np.inf

IMPOSSIBLE = "belief has no possible state (evidence impossible under model)"


@dataclass(frozen=True)
class MessageStack:
    """Per-level message arrays from one sweep over a tree, as log beliefs.

    ``h[l]`` has shape (..., n_l, S) for levels l = 0..L; ``q[l-1]`` holds the
    level-l child-to-parent contributions (l = 1..L). ``b``, present after an
    upsweep, holds parent-to-child messages for levels 1..L plus the final
    leaf beliefs as its last entry.
    """

    h: tuple
    q: tuple
    b: tuple = None


def normalize(b: Belief) -> Belief:
    """Shift each belief so its maximum entry is 0. Idempotent."""
    m = np.max(b, axis=-1, keepdims=True)
    if not (m > NEG_INF).all():
        raise ModelError(IMPOSSIBLE)
    return b - m


def evidence_from_states(states: np.ndarray, n_states: int) -> Belief:
    """Point evidence: 0 at the observed 1-based state, -inf elsewhere."""
    states = np.asarray(states)
    ev = np.full(states.shape + (n_states,), NEG_INF)
    np.put_along_axis(ev, states[..., None] - 1, 0.0, axis=-1)
    return ev


def leaf_evidence_from_noise(z: np.ndarray, t: float, n_states: int) -> Belief:
    """Gaussian log-likelihood profile -t * (s - z/t)^2 / 2 per coordinate.

    Evaluated in the expanded form s*z - t*s^2/2 (the z^2/(2t) term is a
    normalize-invariant constant), which stays exact for t near 0 where the
    squared form cancels catastrophically. t = 0 carries no information and
    yields the all-zero belief.
    """
    return normalize(_noise_profile(z, t, n_states))


def _noise_profile(z: np.ndarray, t: float, n_states: int) -> Belief:
    """`leaf_evidence_from_noise` before it is normalized."""
    z = np.asarray(z, dtype=float)
    check_time(t)
    if t == 0:
        return np.zeros(z.shape + (n_states,))
    s = np.arange(1, n_states + 1, dtype=float)
    return s * z[..., None] - t * s**2 / 2.0


# ---------------------------------------------------------------------------
# Scaled probability-domain engine
# ---------------------------------------------------------------------------


def _rescale(h: np.ndarray) -> np.ndarray:
    """Divide every node's message by its total, in place, and return the
    totals: every caller passes a fresh array, and writing back saves
    allocating another. The likelihood is the product of the totals
    divided out and what remains at the root.

    The total is a matvec with ones: numpy's max or sum over a short last
    axis costs several times as much, and either scale keeps every node's
    largest entry within [1/S, 1].
    """
    total = h @ np.ones(h.shape[-1])
    if not (total > 0).all():
        raise ModelError(IMPOSSIBLE)
    np.divide(h, total[..., None], out=h)
    return total


def _by_rank(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Multiply every row of a (..., n, S) array by its rank's kernel.

    Row r belongs to child rank r % m. `blocks` is a level's block-diagonal
    matrix from the model plan: `down` maps child to parent (x @ kernel.T),
    `up` parent to child (x @ kernel), so a level costs a single matmul.
    """
    return (x.reshape(-1, blocks.shape[0]) @ blocks).reshape(x.shape)


def _leaf_gather(columns: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Child-to-parent messages of observed leaves: column x - 1 of each
    leaf's rank kernel, shape leaves.shape + (S,). `columns` is the leaf
    level's stacked columns from the model plan."""
    S = columns.shape[-1]
    rank = np.arange(leaves.shape[-1]) % (columns.shape[0] // S)
    return np.take(columns, rank * S + leaves - 1, axis=0)


def _group(x: np.ndarray, m: int) -> np.ndarray:
    """View a (..., n, S) level array as (..., n/m, m, S) sibling groups."""
    return x.reshape(x.shape[:-2] + (-1, m, x.shape[-1]))


def _sibling_product(q: np.ndarray, m: int) -> np.ndarray:
    """Each parent's product of its m children's messages, in rank order."""
    siblings = _group(q, m)
    h = siblings[..., 0, :].copy()
    for j in range(1, m):
        h *= siblings[..., j, :]
    return h


def _exclusive_prefix(g: np.ndarray) -> np.ndarray:
    """For each child of (..., m, S) sibling groups, the product of its
    earlier siblings' messages in rank order (ones for the first child)."""
    out = np.empty_like(g)
    out[..., 0, :] = 1.0
    for j in range(1, g.shape[-2]):
        np.multiply(out[..., j - 1, :], g[..., j - 1, :], out=out[..., j, :])
    return out


def _cavities(q: np.ndarray, m: int) -> np.ndarray:
    """For each child, the product of its siblings' messages: the exclusive
    prefix product times a running product of the later siblings, taken
    from the last child down (no division)."""
    g = _group(q, m)
    cav = _exclusive_prefix(g)
    suffix = None
    for j in range(m - 1, 0, -1):
        suffix = g[..., j, :].copy() if suffix is None else np.multiply(suffix, g[..., j, :], out=suffix)
        cav[..., j - 1, :] *= suffix
    return cav.reshape(q.shape)


def _prior_share(model: JghmModel, modality: str) -> np.ndarray:
    """P^(1/m1): the part of the root prior that each level-1 message
    carries under prior_mode 'split'."""
    return model.root_prior ** (1.0 / model.topology.branching(modality)[0])


def _down(model: JghmModel, modality: str, qs: list, h: np.ndarray = None):
    """Scaled down pass from the leaves to level 1; it stops below the root,
    which each caller forms (or not) itself.

    qs[L-1] holds the leaves' child-to-parent messages, or `h` is already
    their product per level-(L-1) node (leaves entered rank by rank). Stores
    the level-l child-to-parent messages in qs[l-1] for l = 1..L-1 and
    returns (hs, totals): hs[l] the level-l products scaled to total 1 (hs[0]
    is None), and the totals divided out, one array per level from L-1 down.
    """
    ms = model.topology.branching(modality)
    down = model.plan(modality).down
    hs, totals = [None] * model.topology.depth, []
    for level in range(model.topology.depth - 1, 0, -1):
        if h is None:
            h = _sibling_product(qs[level], ms[level])
        totals.append(_rescale(h))
        hs[level] = h
        qs[level - 1] = _by_rank(h, down[level - 1])
        h = None
    return hs, totals


def _up(model: JghmModel, modality: str, qs, h_leaf: np.ndarray, root_extra: np.ndarray):
    """Scaled up pass: parent-to-child messages for levels 1..L, then the
    normalized leaf beliefs, all in probability domain. `root_extra` is a
    probability vector over the root; `h_leaf` is the leaf evidence."""
    ms = model.topology.branching(modality)
    out = root_extra[..., None, :]
    bs = []
    for level, blocks in enumerate(model.plan(modality).up, start=1):
        m = ms[level - 1]
        msg = _group(_cavities(qs[level - 1], m), m) * out[..., None, :]
        msg = msg.reshape(msg.shape[:-3] + (-1, msg.shape[-1]))
        _rescale(msg)
        bs.append(msg)
        out = _by_rank(msg, blocks)
    out *= h_leaf
    _rescale(out)
    bs.append(out)
    return bs


def _log(p: np.ndarray) -> Belief:
    with np.errstate(divide="ignore"):
        return normalize(np.log(p))


def _down_from_evidence(model: JghmModel, modality: str, evidence: Belief):
    """Leaf evidence as probabilities and the scaled down pass above it, to
    level 1: (h_leaf, hs, qs) with qs[L-1] the leaves' child-to-parent
    messages."""
    topo = model.topology
    if evidence.shape[-2:] != (topo.n_leaves(modality), topo.n_states):
        raise ModelError(
            f"evidence shape {evidence.shape[-2:]} does not match "
            f"({topo.n_leaves(modality)}, {topo.n_states})"
        )
    h_leaf = np.exp(normalize(evidence))
    qs = [None] * (topo.depth - 1) + [_by_rank(h_leaf, model.plan(modality).down[-1])]
    hs, _ = _down(model, modality, qs)
    return h_leaf, hs, qs


def downsweep(model: JghmModel, modality: str, evidence: Belief, prior_mode: str = "split") -> MessageStack:
    """Aggregate leaf evidence to the root.

    prior_mode controls where the root prior enters:
      'split' -- multiply P[s]^(1/m1) into every level-1 contribution (the
                 contrastive-task form; softmax of h[0] is then P[s | leaves]);
      'none'  -- pure likelihood; used when the prior arrives via another
                 modality's posterior (denoising, next-token prediction).
    """
    if prior_mode not in ("split", "none"):
        raise ModelError(f"unknown prior_mode {prior_mode!r}")
    _, hs, qs = _down_from_evidence(model, modality, evidence)
    if prior_mode == "split":
        qs[0] = qs[0] * _prior_share(model, modality)
    hs[0] = _sibling_product(qs[0], model.topology.branching(modality)[0])
    _rescale(hs[0])
    return MessageStack(h=tuple(_log(h) for h in hs) + (evidence,), q=tuple(_log(q) for q in qs))


def upsweep(model: JghmModel, modality: str, stack: MessageStack, root_extra: Belief) -> MessageStack:
    """Push a root-level belief back to the leaves.

    `root_extra` is a log-domain belief over the root carrying everything
    outside this tree (e.g. the other modality's posterior, which includes
    the prior). Requires a stack produced with prior_mode='none'.

    Returns the stack extended with b-messages; the final entry of ``b``
    holds normalized full leaf beliefs whose softmax is the per-leaf
    posterior given all evidence.
    """
    qs = [np.exp(q) for q in stack.q]
    h_leaf = np.exp(normalize(stack.h[-1]))
    bs = _up(model, modality, qs, h_leaf, np.exp(normalize(np.asarray(root_extra))))
    return MessageStack(h=stack.h, q=stack.q, b=tuple(_log(b) for b in bs))


def _check_leaves(model: JghmModel, modality: str, leaves) -> np.ndarray:
    """Validate a batch of leaf tuples and return it as an integer array."""
    leaves = np.asarray(leaves)
    d = model.topology.n_leaves(modality)
    if leaves.ndim == 0 or leaves.shape[-1] != d:
        raise ModelError(f"expected {d} {modality} leaves, got shape {leaves.shape}")
    if leaves.size == 0:
        raise ModelError(f"empty batch of {modality} leaves, shape {leaves.shape}")
    if not np.issubdtype(leaves.dtype, np.integer):
        raise ModelError(f"{modality} leaves must be integer states, got dtype {leaves.dtype}")
    if leaves.min() < 1 or leaves.max() > model.n_states:
        raise ModelError(f"leaf values must lie in [1, {model.n_states}]")
    return leaves


def _observed_root(model: JghmModel, modality: str, leaves: np.ndarray, share: np.ndarray = None):
    """The root's unscaled product of its level-1 messages given observed
    leaves, shape leaves.shape[:-1] + (1, S), and the totals the down pass
    divided out below it. `share` (the prior share P^(1/m1), or None) is
    multiplied into every level-1 message."""
    topo = model.topology
    S, m = topo.n_states, topo.branching(modality)[-1]
    columns = model.plan(modality).columns[-1]
    # Leaf entry rank by rank: the rank-(j+1) children of the leaves' parents
    # sit at leaf positions j, j + m, ...; their messages are multiplied in
    # as gathered, in the sibling order of _sibling_product.
    h = None
    for j in range(m):
        q = np.take(columns, leaves[..., j::m] + np.intp(j * S - 1), axis=0)
        if topo.depth == 1 and share is not None:
            q *= share
        h = q if h is None else np.multiply(h, q, out=h)
    if topo.depth == 1:
        return h, []
    qs = [None] * topo.depth
    _, totals = _down(model, modality, qs, h)
    q = qs[0] if share is None else qs[0] * share
    return _sibling_product(q, topo.branching(modality)[0]), totals


def root_log_posterior(model: JghmModel, modality: str, leaves: np.ndarray) -> Belief:
    """log P[root = s | leaves], exactly normalized."""
    leaves = _check_leaves(model, modality, leaves)
    root, _ = _observed_root(model, modality, leaves, _prior_share(model, modality))
    _rescale(root)
    with np.errstate(divide="ignore"):
        return np.log(root[..., 0, :])


def root_posterior(model: JghmModel, modality: str, leaves: np.ndarray) -> np.ndarray:
    """P[root = s | leaves] as a probability vector."""
    return np.exp(root_log_posterior(model, modality, leaves))


def text_log_likelihood(model: JghmModel, x_im: np.ndarray, x_tx: np.ndarray) -> np.ndarray:
    """log P(x_tx | x_im) per row, by the scaled forward recipe.

    The text's down pass runs to level 1 without the prior; at the root
    log sum_s P[s | x_im] prod_c q_c[s] is taken unscaled, and the log of
    every total the pass divided out is added back. By the chain rule,
    -log P(x_tx | x_im) is the sum of the teacher-forced next-token NLLs.
    Raises ModelError only where the image posterior does or a level >= 1
    text node has no possible state; a text that is impossible only jointly
    (at the root) or given the image yields -inf.
    """
    x_tx = _check_leaves(model, "tx", x_tx)
    img_post = root_posterior(model, "im", x_im)
    root, totals = _observed_root(model, "tx", x_tx)
    log_scale = sum(np.log(total).sum(axis=-1) for total in totals)
    with np.errstate(divide="ignore"):
        return np.log((root[..., 0, :] * img_post).sum(axis=-1)) + log_scale


def optimal_score(model: JghmModel, x_im: np.ndarray, x_tx: np.ndarray, clamp: float = None):
    """Pointwise mutual information log[P(x_im, x_tx) / (P(x_im) P(x_tx))].

    Computed as log sum_s P[s|x_im] P[s|x_tx] / P[s]; -inf signals a
    zero-probability pairing. `clamp` optionally projects the value onto
    [-clamp, clamp] (the truncated-readout variant).
    """
    p_im = root_posterior(model, "im", x_im)
    p_tx = root_posterior(model, "tx", x_tx)
    with np.errstate(divide="ignore"):
        score = np.log(np.sum(p_im * p_tx / model.root_prior, axis=-1))
    if clamp is not None:
        score = np.clip(score, -clamp, clamp)
    return score


def readout_bound(model: JghmModel) -> float:
    """Score truncation radius 4 * m1 * log(B_psi); inf for unbounded models."""
    b = model.b_psi()
    return np.inf if not np.isfinite(b) else 4.0 * model.topology.m_first * np.log(b)


def posterior_floor(model: JghmModel) -> float:
    """Lower bound 1 / (B_psi^(2 m1) * S) on every root-posterior entry."""
    b = model.b_psi()
    if not np.isfinite(b):
        return 0.0
    return 1.0 / (b ** (2 * model.topology.m_first) * model.n_states)


def _leaf_posteriors(model: JghmModel, modality: str, evidence: Belief, root_extra: np.ndarray) -> np.ndarray:
    """P[x_v = s | evidence, root_extra] for every leaf v; `root_extra` is a
    probability vector over the root."""
    h_leaf, _, qs = _down_from_evidence(model, modality, evidence)
    return _up(model, modality, qs, h_leaf, root_extra)[-1]


def conditioned_denoiser(model: JghmModel, x_tx: np.ndarray):
    """The optimal denoiser bound to one text: a function of a NoisyImage
    returning E[x_im,v | z_t, x_tx] per coordinate.

    The text posterior is computed here, once; each call runs only the
    image tree's down and up pass. Calls broadcast over leading axes of
    `noisy.z` (against those of `x_tx`); every output lies in [1, S].
    """
    text_post = np.exp(root_log_posterior(model, "tx", x_tx))
    states = np.arange(1, model.n_states + 1, dtype=float)

    def denoise(noisy: NoisyImage) -> np.ndarray:
        # _down_from_evidence normalizes the profile, once
        ev = _noise_profile(noisy.z, noisy.t, model.n_states)
        return _leaf_posteriors(model, "im", ev, text_post) @ states

    return denoise


def bayes_denoiser(model: JghmModel, noisy: NoisyImage, x_tx: np.ndarray) -> np.ndarray:
    """E[x_im,v | z_t, x_tx] per coordinate: the optimal denoiser.

    Broadcasts over leading axes of `noisy.z`; every output lies in [1, S].
    """
    return conditioned_denoiser(model, x_tx)(noisy)


def next_token_posterior_bp(model: JghmModel, x_im: np.ndarray, prefix) -> np.ndarray:
    """P[x_tx,i+1 = s | x_im, x_tx,1:i] by a fresh down/up sweep per prefix.

    `prefix` holds the first i observed text tokens (possibly empty);
    unobserved positions contribute the uninformative all-zero belief.
    """
    topo = model.topology
    prefix = np.asarray(prefix).reshape(-1)
    d = topo.d_tx
    i = len(prefix)
    if i > d - 1:
        raise ModelError(f"prefix length {i} exceeds d_tx - 1 = {d - 1}")
    if i and not np.issubdtype(prefix.dtype, np.integer):
        raise ModelError(f"prefix tokens must be integer states, got dtype {prefix.dtype}")
    if i and (prefix.min() < 1 or prefix.max() > model.n_states):
        raise ModelError(f"prefix values must lie in [1, {model.n_states}]")
    ev = np.zeros((d, model.n_states))
    if i:
        ev[:i] = evidence_from_states(prefix, model.n_states)
    img_post = root_posterior(model, "im", x_im)
    return _leaf_posteriors(model, "tx", ev, img_post)[..., i, :]


def next_token_posteriors_parallel(model: JghmModel, x_im: np.ndarray, x_tx: np.ndarray) -> np.ndarray:
    """All next-token posteriors from one down pass plus one up pass.

    Teacher forcing: given the full text, returns a (d_tx, S) array whose
    row i equals P[x_tx,i+1 = . | x_im, x_tx,1:i].

    The down pass is the ordinary scaled one, `_down`, and keeps each
    level's complete child-to-parent messages. It stops below the root: no
    output row conditions on every token, and a root product would reject a
    text whose subtrees are each possible but not jointly.

    The up pass carries, for each level-l node u, D_l: the message into u
    from outside its subtree given the image and every leaf before u's
    subtree. D_l is the parent's D_(l-1) times the complete messages of u's
    earlier siblings (all their leaves come before u's), pushed through u's
    kernel; at the leaves it is the next-token posterior. Every level costs
    one row per node, and no message is divided by another.
    """
    x_tx = _check_leaves(model, "tx", x_tx)
    L, ms = model.topology.depth, model.topology.m_tx
    plan = model.plan_tx
    D = root_posterior(model, "im", x_im)[..., None, :]

    qs = [None] * (L - 1) + [_leaf_gather(plan.columns[L - 1], x_tx)]
    _down(model, "tx", qs)
    for level in range(1, L + 1):
        msg = D[..., None, :] * _exclusive_prefix(_group(qs[level - 1], ms[level - 1]))
        msg = msg.reshape(msg.shape[:-3] + (-1, msg.shape[-1]))
        D = _by_rank(msg, plan.up[level - 1])
        _rescale(D)
    return D
