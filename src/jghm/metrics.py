"""Risk evaluators: contrastive risk and its mutual-information limit,
zero-shot classification, conditional denoising, next-token divergence, and
the matched/mismatched-model comparison.

Monte-Carlo estimators consume counter-based streams keyed by purpose and
chunk index, so results are bit-reproducible and independent of evaluation
order. Reports carry the estimate, its standard error (0 for exact values)
and the sample count.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bp import bayes_denoiser, root_posterior, text_log_likelihood
from .model import JghmModel, ModelError
from .oracle import (
    DEFAULT_BUDGET,
    JointTable,
    _expected_kl,
    encoder_fibers,
    enumerate_joint,
    exact_suff_encoder,
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
    "zsc_kl",
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


def _chunks(n: int, size: int = CHUNK):
    for c, lo in enumerate(range(0, n, size)):
        yield c, lo, min(lo + size, n)


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


def _contrastive_losses(data_model: JghmModel, scores, K: int, n: int, seed: int, purpose: str):
    """Per-batch InfoNCE losses for each score on n common batches: (n, len(scores))."""
    losses = np.empty((n, len(scores)))
    for c, lo, hi in _chunks(n):
        losses[lo:hi] = _contrastive_batch_losses(
            data_model, scores, K, hi - lo, stream(seed, purpose, K, c))
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
    losses = _contrastive_losses(model, [score], K, n, seed, "clip-risk")[:, 0]
    est, se = _mean_se(losses)
    return RiskReport("clip_risk", est, se, n, meta)


def clip_excess_and_mi_limit(model: JghmModel, score, K_list, n: int, seed: int):
    """For each K: the shifted optimal risk -R*/2 + log K (the MI estimate)
    and the excess risk of `score` over the optimal score on common batches.

    Returns a list of RiskReports: ('mi_limit', K) and ('clip_excess', K).
    """
    star = exact_score(model)
    reports = []
    for K in K_list:
        losses = _contrastive_losses(model, [star, score], K, n, seed, "clip-excess")
        star_mean, star_se = _mean_se(losses[:, 0])
        reports.append(RiskReport("mi_limit", math.log(K) - 0.5 * star_mean, 0.5 * star_se, n,
                                  {"K": K, "seed": seed, "score": star.name}))
        diff = losses[:, 1] - losses[:, 0]
        est, se = _mean_se(diff)
        reports.append(
            RiskReport("clip_excess", est, se, n, {"K": K, "seed": seed, "score": score.name})
        )
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


def zsc_infinite_sample_predict(model: JghmModel, score, x_im, table: JointTable = None) -> np.ndarray:
    """Analytic M -> infinity limit of the classifier, by enumeration."""
    if table is None:
        table = enumerate_joint(model)
    scores = score_matrix(score, table)[int(table.index("im", x_im))]
    w = np.exp(scores - scores.max()) * table.p_tx
    joint_ty = table.prior[:, None] * table.cond_tx  # (S, N_tx): P(y, x_tx)
    with np.errstate(invalid="ignore"):
        cls_given_tx = joint_ty / table.p_tx
    num = (w[None, :] * np.nan_to_num(cls_given_tx)).sum(axis=1)
    return num / w.sum()


def zsc_kl(model: JghmModel, score, M: int, n: int, seed: int) -> RiskReport:
    """E_x KL(P(y | x_im) || predicted class distribution), MC over images."""
    reports = zsc_kl_sweep(model, score, [M], n, seed)
    return reports[0]


def zsc_kl_sweep(model: JghmModel, score, M_list, n: int, seed: int):
    """KL risk across an M sweep with nested text samples.

    The same images serve every M, and the texts for smaller M are prefixes
    of the largest draw, so the sweep is maximally paired.
    """
    M_list = list(M_list)
    M_max = max(M_list)
    log_prior = np.log(model.root_prior)
    kls = {M: np.empty(n) for M in M_list}
    chunk = max(1, min(CHUNK, 65536 // max(1, M_max)))
    for c, lo, hi in _chunks(n, chunk):
        images = sample_joint_batch(model, hi - lo, stream(seed, "zsc-images", c)).x_im
        truth = root_posterior(model, "im", images)
        pair = _class_pair_scores(model, score, images, M_max, stream(seed, "zsc-texts", M_max, c))
        for M in M_list:
            kls[M][lo:hi] = kl_rows(truth, _class_prediction(pair[:, :, :M], log_prior))
    reports = []
    for M in M_list:
        est, se = _mean_se(kls[M])
        reports.append(
            RiskReport("zsc_kl", est, se, n, {"M": M, "seed": seed, "score": score.name})
        )
    return reports


# ---------------------------------------------------------------------------
# Conditional denoising
# ---------------------------------------------------------------------------


def cdm_estimation_error(model: JghmModel, encoder, t: float = 1.0, n: int = 100_000,
                         seed: int = 0, table: JointTable = None,
                         budget: int = DEFAULT_BUDGET) -> RiskReport:
    """(1/d_im) E || m*(z_t, x_tx) - E[x_im | z_t, encoder(x_tx)] ||^2.

    The encoder-restricted denoiser is computed exactly by fiber averaging
    over the enumerated joint; the outer expectation is Monte Carlo. The
    metadata carries the bound 2 S^2 Suff(encoder).
    """
    if table is None:
        table = enumerate_joint(model, budget)
    ids, n_fibers = encoder_fibers(encoder, table.tuples_tx, table.p_tx)
    onehot = np.zeros((len(ids), n_fibers))
    onehot[np.arange(len(ids)), ids] = 1.0
    im_fiber = table.joint @ onehot  # (N_im, F): P(x_im = i, fiber = f)
    x_all = table.tuples_im.astype(float)  # (N_im, d_im)
    suff = exact_suff_encoder(model, encoder, "tx", table)

    errs = np.empty(n)
    for c, lo, hi in _chunks(n):
        rng = stream(seed, "cdm", c)
        draws = sample_joint_batch(model, hi - lo, rng)
        noisy = noise_image(draws.x_im, t, rng)
        m_star = bayes_denoiser(model, noisy, draws.x_tx)
        f = ids[table.index("tx", draws.x_tx)]
        with np.errstate(divide="ignore"):
            logw = np.log(im_fiber[:, f].T)  # (B, N_im)
        if t > 0:
            logw = logw + noisy.z @ x_all.T - t * np.sum(x_all**2, axis=1) / 2.0
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        m_hat = w @ x_all
        errs[lo:hi] = ((m_star - m_hat) ** 2).mean(axis=1)
    est, se = _mean_se(errs)
    bound = 2.0 * model.n_states**2 * suff
    return RiskReport(
        "cdm_estimation_error", est, se, n,
        {"t": t, "seed": seed, "encoder": encoder.name, "suff": suff, "bound": bound},
    )


# ---------------------------------------------------------------------------
# Next-token divergence
# ---------------------------------------------------------------------------


def _prefix_codes(tuples: np.ndarray, n_states: int):
    """Per position p: (prefix index of each tuple, current 0-based token)."""
    out = []
    codes = np.zeros(len(tuples), dtype=np.int64)
    for p in range(tuples.shape[1]):
        out.append((codes.copy(), tuples[:, p] - 1))
        codes = codes * n_states + (tuples[:, p] - 1)
    return out


def _token_mass(weights: np.ndarray, codes, tokens, n_prefix: int, S: int) -> np.ndarray:
    """Per row of `weights` (a mass on text tuples), the mass of each
    (prefix, current token) pair, shape (rows, n_prefix, S)."""
    mass = np.zeros(weights.shape[:-1] + (n_prefix, S))
    np.add.at(mass, (..., codes, tokens), weights)
    return mass


def vlm_divergence(model: JghmModel, encoder, table: JointTable = None,
                   budget: int = DEFAULT_BUDGET) -> RiskReport:
    """Summed next-token KL between the true predictor and the
    encoder-restricted predictor, computed exactly by enumeration.

    D = E sum_i KL( P(x_tx,i | x_im, prefix) || P(x_tx,i | encoder(x_im), prefix) ).
    Each position i is one expected KL over the (image, prefix) rows.
    """
    if table is None:
        table = enumerate_joint(model, budget)
    S = model.n_states
    ids, n_fibers = encoder_fibers(encoder, table.tuples_im, table.p_im)
    fiber_joint = np.zeros((n_fibers, table.joint.shape[1]))
    np.add.at(fiber_joint, ids, table.joint)
    suff = exact_suff_encoder(model, encoder, "im", table)

    total = 0.0
    for p, (codes, tokens) in enumerate(_prefix_codes(table.tuples_tx, S)):
        true = _token_mass(table.joint, codes, tokens, S**p, S)
        restricted = _token_mass(fiber_joint, codes, tokens, S**p, S)[ids]
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
    losses = _contrastive_batch_losses(
        models[0], scores, K, B, stream(seed, "misspec-clip", K, c))
    return tuple(losses.T)


def _zsc_losses(models, B, c, seed, K, t):
    # Bayes-optimal class prediction is the root posterior itself; the
    # mismatched predictor runs the same inference with the train kernels.
    draws = sample_joint_batch(models[0], B, stream(seed, "misspec-zsc-data", c))
    idx = (np.arange(B), draws.root - 1)
    with np.errstate(divide="ignore"):
        return tuple(-np.log(root_posterior(model, "im", draws.x_im)[idx]) for model in models)


def _cdm_losses(models, B, c, seed, K, t):
    rng = stream(seed, "misspec-cdm", c)
    draws = sample_joint_batch(models[0], B, rng)
    noisy = noise_image(draws.x_im, t, rng)
    x = draws.x_im.astype(float)
    return tuple(((x - bayes_denoiser(model, noisy, draws.x_tx)) ** 2).mean(axis=1)
                 for model in models)


def _vlm_losses(models, B, c, seed, K, t):
    # the mean teacher-forced next-token NLL of a row is, by the chain rule,
    # -log P(x_tx | x_im) / d_tx
    draws = sample_joint_batch(models[0], B, stream(seed, "misspec-vlm", c))
    d_tx = models[0].topology.d_tx
    return tuple(-text_log_likelihood(model, draws.x_im, draws.x_tx) / d_tx for model in models)


# task -> (per-row losses of one chunk, one array per model, for the distinct
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
    losses = np.empty((len(models), n))
    for c, lo, hi in _chunks(n):
        losses[:, lo:hi] = task_losses(models, hi - lo, c, seed, K, t)
    bayes, risk = losses[0], losses[-1]
    values = {"K": K, "t": t}
    meta = {key: values[key] for key in params}
    matched = _tag(meta, test_model, test_model, seed)
    paired = _tag(meta, train_model, test_model, seed)
    return MisspecResult(RiskReport(risk_name, *_mean_se(bayes), n, matched),
                         RiskReport(risk_name, *_mean_se(risk), n, paired),
                         RiskReport(excess_name, *_mean_se(risk - bayes), n, paired))
