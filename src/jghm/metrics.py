"""Risk evaluators: contrastive risk and its mutual-information limit,
zero-shot classification, conditional denoising, next-token divergence, and
the matched/mismatched-model comparison.

Every Monte-Carlo estimator, and the SDE sampler in `diffusion`, runs
through one chunk loop, `_monte_carlo`. Chunk c (CHUNK rows, except in the
SDE and the zsc sweep) draws from counter-based streams keyed by purpose
and c: "clip-risk", "clip-excess" and "misspec-clip" (each also keyed by
K), "zsc-images" and "zsc-texts" (also keyed by M_max), "cdm",
"misspec-zsc-data", "misspec-cdm", "misspec-vlm" and "sde-noise". Results
are therefore bit-reproducible and independent of evaluation order.
Reports carry the estimate, its standard error (0 for exact values) and
the sample count.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bp import bayes_denoiser, root_posterior, text_log_likelihood
from .model import JghmModel, ModelError, _integer
from .oracle import (
    JointTable,
    _expected_kl,
    _fiber_joint,
    _gaussian_tilted_mean,
    kl_rows,
    score_matrix,
)
from .rng import stream
from .sampler import noise_image, sample_contrastive_rows, sample_joint_batch, sample_text_for_class
from .encoders import exact_score

__all__ = [
    "RiskReport",
    "CSV_COLUMNS",
    "clip_risk",
    "clip_excess_and_mi_limit",
    "zsc_predict",
    "zsc_kl_sweep",
    "zsc_infinite_sample_predict",
    "cdm_estimation_error",
    "vlm_divergence",
    "misspec_bp_eval",
    "MisspecResult",
    "MISSPEC_TASKS",
]

CHUNK = 1024
CSV_COLUMNS = ["name", "estimate", "se", "n", "K", "M", "t", "p_flip_train", "p_flip_test", "seed"]


@dataclass(frozen=True)
class RiskReport:
    """One labeled scalar metric with its Monte-Carlo precision."""

    name: str
    estimate: float
    se: float
    n: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.se < 0:
            raise ModelError("standard error must be >= 0")
        if self.n < 1:
            raise ModelError("sample count must be >= 1")

    def csv_row(self) -> list:
        row = [self.name, repr(float(self.estimate)), repr(float(self.se)), str(self.n)]
        for key in CSV_COLUMNS[4:]:
            value = self.metadata.get(key, "")
            row.append("" if value == "" else repr(value) if isinstance(value, float) else str(value))
        return row


def _mean_se(values: np.ndarray):
    values = np.asarray(values, dtype=float)
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se


def _report(name: str, values: np.ndarray, meta: dict) -> RiskReport:
    """The mean of per-row `values` with its standard error."""
    return RiskReport(name, *_mean_se(values), len(values), meta)


def _monte_carlo(n: int, rows, size: int = CHUNK) -> np.ndarray:
    """The one chunk loop: `rows(c, B)` gives the (B, ...) block of chunk
    c = 0, 1, ..., which holds B = min(size, n - c * size) rows; the blocks
    are stacked in chunk order."""
    if n < 1:
        raise ModelError(f"a Monte-Carlo estimate needs n >= 1 rows, got {n}")
    return np.concatenate([rows(c, min(size, n - lo)) for c, lo in enumerate(range(0, n, size))])


def _logsumexp(a: np.ndarray, axis=-1):
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


# ---------------------------------------------------------------------------
# Contrastive risk
# ---------------------------------------------------------------------------


def _score_features(score, modality: str, leaves: np.ndarray, cache: dict) -> np.ndarray:
    """Score features with one posterior computation per (model, modality)
    shared by every score in `cache`'s chunk."""
    key = (id(score.model), modality)
    if key not in cache:
        cache[key] = score.posterior(modality, leaves)
    return score.transform(modality)(cache[key])


def _contrastive_batch_losses(data_model: JghmModel, scores, K: int, B: int, rng) -> np.ndarray:
    """Symmetric InfoNCE loss of each score on B common batches: (B, len(scores))."""
    images, texts = sample_contrastive_rows(data_model, K, B, rng)
    losses = np.empty((B, len(scores)))
    cache = {}
    for k, score in enumerate(scores):
        f_im = _score_features(score, "im", images, cache)
        f_tx = _score_features(score, "tx", texts, cache)
        logits_tx = score.from_features(f_im[:, :1], f_tx)  # (B, K)
        logits_im = score.from_features(f_im, f_tx[:, :1])
        p = logits_tx[:, 0]
        losses[:, k] = (_logsumexp(logits_tx) - p) + (_logsumexp(logits_im) - p)
    return losses


def clip_risk(model: JghmModel, score, K: int, n: int, seed: int) -> RiskReport:
    """Monte-Carlo estimate of the symmetric InfoNCE risk at batch size K.

    Constant scores short-circuit to the exact value 2 log K.
    """
    if K < 2 or n < 1:
        raise ModelError("clip_risk needs K >= 2 and n >= 1")
    meta = {"K": K, "seed": seed, "score": score.name}
    if score.model is None:
        return RiskReport("clip_risk", 2.0 * math.log(K), 0.0, n, meta)
    losses = _monte_carlo(n, lambda c, B: _contrastive_batch_losses(
        model, [score], K, B, stream(seed, "clip-risk", K, c)))
    return _report("clip_risk", losses[:, 0], meta)


def clip_excess_and_mi_limit(model: JghmModel, score, K_list, n: int, seed: int):
    """For each K: the shifted optimal risk -R*/2 + log K (the MI estimate)
    and the excess risk of `score` over the optimal score on common batches.

    Returns a list of RiskReports: ('mi_limit', K) and ('clip_excess', K).
    """
    star = exact_score(model)
    reports = []
    for K in K_list:
        losses = _monte_carlo(n, lambda c, B: _contrastive_batch_losses(
            model, [star, score], K, B, stream(seed, "clip-excess", K, c)))
        star_mean, star_se = _mean_se(losses[:, 0])
        reports.append(RiskReport("mi_limit", math.log(K) - 0.5 * star_mean, 0.5 * star_se, n,
                                  {"K": K, "seed": seed, "score": star.name}))
        reports.append(_report("clip_excess", losses[:, 1] - losses[:, 0],
                               {"K": K, "seed": seed, "score": score.name}))
    return reports


# ---------------------------------------------------------------------------
# Zero-shot classification (labels are root states)
# ---------------------------------------------------------------------------


def _class_pair_scores(class_model: JghmModel, score, images: np.ndarray, M: int, rng):
    """Scores (B, S, M) of each image against M texts drawn for each class."""
    B, S = images.shape[0], class_model.n_states
    f_im = score.features("im", images)[:, None, :]  # (B, 1, p)
    pair = np.empty((B, S, M))
    for y in range(1, S + 1):
        texts = sample_text_for_class(class_model, y, rng, size=B * M).reshape(B, M, -1)
        pair[:, y - 1, :] = score.from_features(f_im, score.features("tx", texts))
    return pair


def _class_prediction(pair: np.ndarray, log_prior: np.ndarray) -> np.ndarray:
    """Predicted class distribution (B, S) from pair scores (B, S, M).

    Classes with all -inf aggregated scores receive zero mass.
    """
    logits = _logsumexp(pair, axis=-1) - math.log(pair.shape[-1]) + log_prior
    m = logits.max(axis=1, keepdims=True)
    if not np.all(m > -np.inf):
        raise ModelError("every class has zero aggregated score mass")
    p = np.exp(logits - m)
    return p / p.sum(axis=1, keepdims=True)


def zsc_predict(model: JghmModel, score, x_im: np.ndarray, M: int, rng) -> np.ndarray:
    """Class posterior for one image from the aggregated-score classifier."""
    if M < 1:
        raise ModelError("zsc_predict needs M >= 1")
    pair = _class_pair_scores(model, score, np.asarray(x_im)[None, :], M, rng)
    return _class_prediction(pair, np.log(model.root_prior))[0]


def zsc_infinite_sample_predict(table: JointTable, score, x_im) -> np.ndarray:
    """Analytic M -> infinity limit of the classifier, by enumeration."""
    scores = score_matrix(score, table)[int(table.index("im", x_im))]
    w = np.exp(scores - scores.max()) * table.p_tx
    joint_ty = table.prior[:, None] * table.cond_tx  # (S, N_tx): P(y, x_tx)
    with np.errstate(invalid="ignore"):
        cls_given_tx = joint_ty / table.p_tx
    num = (w[None, :] * np.nan_to_num(cls_given_tx)).sum(axis=1)
    return num / w.sum()


def zsc_kl_sweep(model: JghmModel, score, M_list, n: int, seed: int):
    """E_x KL(P(y | x_im) || predicted class distribution), MC over images,
    for each M of an M sweep with nested text samples.

    The same images serve every M, and the texts for smaller M are prefixes
    of the largest draw, so the sweep is maximally paired. An empty M_list,
    or an entry that is not an integer >= 1, raises ModelError.
    """
    M_list = list(M_list)
    if not M_list:
        raise ModelError("zsc_kl_sweep needs a non-empty M_list")
    for j, M in enumerate(M_list):
        if not _integer(M) or M < 1:
            raise ModelError(f"M_list[{j}] must be an integer >= 1, got {M!r}")
    M_max = max(M_list)
    log_prior = np.log(model.root_prior)

    def kls(c, B):  # (B, len(M_list))
        images = sample_joint_batch(model, B, stream(seed, "zsc-images", c)).x_im
        truth = root_posterior(model, "im", images)
        pair = _class_pair_scores(model, score, images, M_max, stream(seed, "zsc-texts", M_max, c))
        return np.stack([kl_rows(truth, _class_prediction(pair[:, :, :M], log_prior))
                         for M in M_list], axis=1)

    kl = _monte_carlo(n, kls, max(1, min(CHUNK, 65536 // M_max)))
    return [_report("zsc_kl", kl[:, j], {"M": M, "seed": seed, "score": score.name})
            for j, M in enumerate(M_list)]


# ---------------------------------------------------------------------------
# Conditional denoising
# ---------------------------------------------------------------------------


def cdm_estimation_error(model: JghmModel, table: JointTable, encoder, t: float, n: int,
                         seed: int) -> RiskReport:
    """(1/d_im) E || m*(z_t, x_tx) - E[x_im | z_t, encoder(x_tx)] ||^2.

    The encoder-restricted denoiser is computed exactly by fiber averaging
    over `model`'s enumerated joint `table`; the outer expectation is Monte
    Carlo over draws from `model`. The metadata carries the bound
    2 S^2 Suff(encoder).
    """
    # fiber_joint[f, i] = P(encoder fiber f of x_tx, x_im = i)
    ids, joint, fiber_joint = _fiber_joint(table, "tx", encoder)
    x_all = table.tuples_im.astype(float)  # (N_im, d_im)
    suff = _expected_kl(joint, fiber_joint[ids])

    def errs(c, B):
        rng = stream(seed, "cdm", c)
        draws = sample_joint_batch(model, B, rng)
        noisy = noise_image(draws.x_im, t, rng)
        m_star = bayes_denoiser(model, noisy, draws.x_tx)
        f = ids[table.index("tx", draws.x_tx)]
        m_hat = _gaussian_tilted_mean(fiber_joint[f], noisy.z, t, x_all)
        return ((m_star - m_hat) ** 2).mean(axis=1)

    bound = 2.0 * model.n_states**2 * suff
    return _report("cdm_estimation_error", _monte_carlo(n, errs),
                   {"t": t, "seed": seed, "encoder": encoder.name, "suff": suff, "bound": bound})


# ---------------------------------------------------------------------------
# Next-token divergence
# ---------------------------------------------------------------------------


def _token_mass(weights: np.ndarray, p: int, S: int) -> np.ndarray:
    """Per row of `weights` (a mass on text tuples), the mass of each
    (prefix of p tokens, next token) pair, shape (rows, S**p, S): the sum of
    its block of suffixes, added one by one in tuple order (a pairwise
    `.sum` would round differently)."""
    blocks = weights.reshape(len(weights), S**p, S, -1)
    return np.add.accumulate(blocks, axis=-1)[..., -1]


def vlm_divergence(table: JointTable, encoder) -> RiskReport:
    """Summed next-token KL between the true predictor and the
    encoder-restricted predictor, computed exactly by enumeration.

    D = E sum_i KL( P(x_tx,i | x_im, prefix) || P(x_tx,i | encoder(x_im), prefix) ).
    Each position i is one expected KL over the (image, prefix) rows.
    """
    S = table.n_states
    ids, joint, fiber_joint = _fiber_joint(table, "im", encoder)
    suff = _expected_kl(joint, fiber_joint[ids])

    total = 0.0
    for p in range(table.tuples_tx.shape[1]):
        true = _token_mass(joint, p, S)
        restricted = _token_mass(fiber_joint, p, S)[ids]
        total += _expected_kl(true.reshape(-1, S), restricted.reshape(-1, S))
    n_pairs = int(np.count_nonzero(table.joint))
    total = max(total, 0.0)
    return RiskReport(
        "vlm_divergence", total, 0.0, max(n_pairs, 1),
        {"encoder": encoder.name, "suff": suff},
    )


# ---------------------------------------------------------------------------
# Matched vs mismatched model evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MisspecResult:
    """Paired evaluation on one set of test-model draws: the risk of the
    matched-model (Bayes) predictor, the risk of the train-model predictor,
    and its excess over the Bayes predictor."""

    bayes: RiskReport
    risk: RiskReport
    excess: RiskReport


def _tag(meta, train_model, test_model, seed):
    out = dict(meta)
    out["p_flip_train"] = train_model.metadata.get("p_flip", "")
    out["p_flip_test"] = test_model.metadata.get("p_flip", "")
    out["seed"] = seed
    return out


def _clip_losses(models, B, c, seed, K, t):
    scores = [exact_score(model) for model in models]
    return _contrastive_batch_losses(models[0], scores, K, B, stream(seed, "misspec-clip", K, c))


def _zsc_losses(models, B, c, seed, K, t):
    # Bayes-optimal class prediction is the root posterior itself; the
    # mismatched predictor runs the same inference with the train kernels.
    draws = sample_joint_batch(models[0], B, stream(seed, "misspec-zsc-data", c))
    idx = (np.arange(B), draws.root - 1)
    with np.errstate(divide="ignore"):
        return np.stack([-np.log(root_posterior(model, "im", draws.x_im)[idx])
                         for model in models], axis=1)


def _cdm_losses(models, B, c, seed, K, t):
    rng = stream(seed, "misspec-cdm", c)
    draws = sample_joint_batch(models[0], B, rng)
    noisy = noise_image(draws.x_im, t, rng)
    x = draws.x_im.astype(float)
    return np.stack([((x - bayes_denoiser(model, noisy, draws.x_tx)) ** 2).mean(axis=1)
                     for model in models], axis=1)


def _vlm_losses(models, B, c, seed, K, t):
    # the mean teacher-forced next-token NLL of a row is, by the chain rule,
    # -log P(x_tx | x_im) / d_tx
    draws = sample_joint_batch(models[0], B, stream(seed, "misspec-vlm", c))
    d_tx = models[0].topology.d_tx
    return np.stack([-text_log_likelihood(model, draws.x_im, draws.x_tx) / d_tx
                     for model in models], axis=1)


# task -> (per-row losses of one chunk, (B, len(models)), for the distinct
#          models (test, [train]) on data drawn from the test model; risk
#          report name; excess report name; evaluation parameters carried in
#          the metadata)
MISSPEC_TASKS = {
    "clip": (_clip_losses, "clip_risk", "clip_excess", ("K",)),
    "zsc": (_zsc_losses, "zsc_logloss", "zsc_excess", ()),
    "cdm": (_cdm_losses, "cdm_risk", "cdm_excess", ("t",)),
    "vlm": (_vlm_losses, "vlm_risk", "vlm_excess", ()),
}


def misspec_bp_eval(train_model: JghmModel, test_model: JghmModel, task: str,
                    n: int = 100_000, seed: int = 0, K: int = 8,
                    t: float = 1.0) -> MisspecResult:
    """Evaluate exact inference parameterized by `train_model` on data drawn
    from `test_model`, with the matched-model predictor as the paired
    baseline. Supported tasks: the keys of MISSPEC_TASKS.

    Both predictors score the same draws, and each distinct model runs its
    inference once per chunk; at train is test the excess is identically
    zero and the risk equals the Bayes risk.
    """
    if task not in MISSPEC_TASKS:
        raise ModelError(f"unknown task {task!r}; expected {', '.join(MISSPEC_TASKS)}")
    task_losses, risk_name, excess_name, params = MISSPEC_TASKS[task]
    models = (test_model,) if train_model is test_model else (test_model, train_model)
    losses = _monte_carlo(n, lambda c, B: task_losses(models, B, c, seed, K, t))
    bayes, risk = losses[:, 0], losses[:, -1]
    values = {"K": K, "t": t}
    meta = {key: values[key] for key in params}
    matched = _tag(meta, test_model, test_model, seed)
    paired = _tag(meta, train_model, test_model, seed)
    return MisspecResult(_report(risk_name, bayes, matched), _report(risk_name, risk, paired),
                         _report(excess_name, risk - bayes, paired))
