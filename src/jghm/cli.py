"""Reproducible experiment driver.

Subcommands: gen-model, sweep, zsc, cdm-sample, vlm, export-dataset,
selftest. Everything is driven by JSON configs plus a master seed; outputs
are CSV (metrics) and JSONL (datasets) carrying a build id, the seed and a
config hash, and are byte-identical across reruns and thread counts.

Exit codes: 0 success, 1 invariant or acceptance failure, 2 usage/config
error, a config whose topology exceeds the enumeration budget of an exact
command (`vlm`, `cdm-sample`) included.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .bp import (
    bayes_denoiser,
    downsweep,
    evidence_from_states,
    leaf_evidence_from_noise,
    next_token_posterior_bp,
    next_token_posteriors_parallel,
    root_log_posterior,
    root_posterior,
    upsweep,
)
from .diffusion import SdeConfig, law_distance, sampled_law
from .encoders import (
    canonical_encoder,
    coarsened_root_encoder,
    coarsened_score,
    constant_encoder,
    constant_score,
    exact_score,
)
from .metrics import CSV_COLUMNS, MISSPEC_TASKS, misspec_bp_eval, vlm_divergence, zsc_kl_sweep
from .model import (
    JghmModel,
    ModelError,
    ModelGenSpec,
    TreeTopology,
    make_pflip_model,
    model_from_json,
    model_to_json,
    topology_from_json,
    validate_model,
)
from .oracle import (
    BudgetExceeded,
    enumerate_joint,
    exact_conditional_root,
    exact_denoiser,
    exact_next_token,
)
from .presets import diffusion_model, micro_model, reference_model
from .rng import stream
from .sampler import check_time, noise_image, sample_joint

BUILD_ID = f"jghm-lab-{__version__}"


class ConfigError(ValueError):
    pass


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _config_hash(cfg) -> str:
    data = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _count(name, value, minimum=1) -> int:
    """A config count of at least `minimum`; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _seed(name, value) -> int:
    """A config seed: an integer that fits the signed 128 bits of a stream
    key; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or not -2**127 <= value < 2**127:
        raise ConfigError(f"{name} must be an integer in [-2**127, 2**127), got {value!r}")
    return value


def _master_seed(args, cfg) -> int:
    """The --seed flag, else the config seed (default 0)."""
    if args.seed is not None:
        return _seed("--seed", args.seed)
    return _seed("seed", cfg.get("seed", 0))


def _real(name, value):
    """A finite real config number; bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return value


def _probability(name, value):
    """A config probability: a real number in [0, 1]; bools are rejected."""
    if not 0 <= _real(name, value) <= 1:
        raise ConfigError(f"{name} must be a real number in [0, 1], got {value!r}")
    return value


def _time(name, value):
    """A config diffusion time, held to the sampler's rule for t."""
    try:
        check_time(value)
    except ModelError as e:
        raise ConfigError(f"{name}: {e}") from e
    return value


def _text(value, model) -> np.ndarray:
    """A config text: a list of d_tx integer states in [1, S]; bools are rejected."""
    d_tx, S = model.topology.d_tx, model.n_states
    if not isinstance(value, list) or len(value) != d_tx or any(
            isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= S for v in value):
        raise ConfigError(f"text must be a list of {d_tx} integers in [1, {S}], got {value!r}")
    return np.asarray(value, dtype=np.int64)


def _topology(cfg) -> TreeTopology:
    """The config topology, read as a model file's is."""
    try:
        return topology_from_json(cfg.get("topology"))
    except ModelError as e:
        raise ConfigError(str(e)) from e


def _gen_spec(cfg, p_flip=None) -> ModelGenSpec:
    if p_flip is None and "p_flip" not in cfg:
        raise ConfigError("config needs p_flip (or a sweep list)")
    seed_key = "model_seed" if "model_seed" in cfg else "seed"
    overrides = {key: _probability(key, cfg[key]) for key in ("p_flip_im", "p_flip_tx")
                 if cfg.get(key) is not None}
    return ModelGenSpec(
        topology=_topology(cfg),
        p_flip=_probability("p_flip", cfg["p_flip"]) if p_flip is None else p_flip,
        seed=_seed(seed_key, cfg.get(seed_key, 0)),
        gaussian_scale=_real("gaussian_scale", cfg.get("gaussian_scale", 1.0)),
        **overrides,
    )


def _resolve_model(cfg, p_flip=None) -> JghmModel:
    if "model_path" in cfg:
        try:
            model = model_from_json(Path(cfg["model_path"]).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read model_path {cfg['model_path']}: {e}") from e
        except ModelError as e:  # a bad topology, kernel shape or schema version
            raise ConfigError(f"model_path {cfg['model_path']}: {e}") from e
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            validate_model(model)  # corrupted files fail with the named invariant
        return model
    if "topology" not in cfg:
        raise ConfigError("config needs either model_path or topology/p_flip")
    return make_pflip_model(_gen_spec(cfg, p_flip))


def _resolve_score(name, model):
    scores = {"exact": exact_score, "coarsened": coarsened_score, "constant": lambda m: constant_score()}
    if name not in scores:
        raise ConfigError(f"unknown score {name!r}; expected exact, coarsened or constant")
    return scores[name](model)


def _resolve_encoder(name, model, modality):
    encoders = {
        "canonical": canonical_encoder,
        "coarsened": coarsened_root_encoder,
        "constant": constant_encoder,
    }
    if name not in encoders:
        raise ConfigError(f"unknown encoder {name!r}; expected canonical, coarsened or constant")
    return encoders[name](model, modality)


def _write_reports(path: Path, reports, seed, cfg):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# build={BUILD_ID}\n")
        f.write(f"# seed={seed}\n")
        f.write(f"# config_hash={_config_hash(cfg)}\n")
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(r.csv_row())
    print(f"wrote {path} ({len(reports)} rows)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_model(args) -> int:
    cfg = _load_config(args.config)
    model = make_pflip_model(_gen_spec(cfg))
    b_psi = validate_model(model)
    out = Path(args.out or ".") / "model.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(model_to_json(model))
    print(f"wrote {out}")
    print(f"effective B_psi = {b_psi}")
    return 0


def _sweep_point(cfg, task, train_model, test_p, kwargs):
    test_model = make_pflip_model(_gen_spec(cfg, p_flip=test_p))
    if train_model is None:
        return [misspec_bp_eval(test_model, test_model, task, **kwargs).bayes]
    res = misspec_bp_eval(train_model, test_model, task, **kwargs)
    return [res.bayes, res.risk, res.excess]


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    task = cfg.get("task")
    if task not in MISSPEC_TASKS:
        raise ConfigError(f"unknown task {task!r}; expected {', '.join(MISSPEC_TASKS)}")
    p_list = cfg.get("p_flip_list")
    if not isinstance(p_list, list) or not p_list:
        raise ConfigError(f"sweep config needs a non-empty p_flip_list, got {p_list!r}")
    p_list = [_probability("p_flip_list entry", p) for p in p_list]
    seed = _master_seed(args, cfg)
    kwargs = {"n": _count("n", cfg.get("n", 2000)), "seed": seed,
              "K": _count("K", cfg.get("K", 8), minimum=2), "t": _time("t", cfg.get("t", 1.0))}
    threads = _count("--threads", args.threads)
    ood = cfg.get("ood", False)
    if not isinstance(ood, bool):
        raise ConfigError(f"ood must be true or false, got {ood!r}")
    train_p = cfg.get("train_p_flip", 0.2 if ood else None)
    train_model = None
    if train_p is not None:
        train_model = make_pflip_model(_gen_spec(cfg, p_flip=_probability("train_p_flip", train_p)))

    def run_point(p):
        return _sweep_point(cfg, task, train_model, p, kwargs)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_point, p_list))
    else:
        results = [run_point(p) for p in p_list]
    reports = [r for rows in results for r in rows]
    _write_reports(Path(args.out or ".") / "sweep.csv", reports, seed, cfg)
    return 0


def cmd_zsc(args) -> int:
    cfg = _load_config(args.config)
    n = _count("n", cfg.get("n", 2000))
    m_list = cfg.get("M_list", [cfg.get("M", 64)])
    if not isinstance(m_list, list) or not m_list:
        raise ConfigError(f"M_list must be a non-empty list, got {m_list!r}")
    m_list = [_count("M", m) for m in m_list]
    seed = _master_seed(args, cfg)
    model = _resolve_model(cfg)
    score = _resolve_score(cfg.get("score", "exact"), model)
    reports = zsc_kl_sweep(model, score, m_list, n, seed)
    _write_reports(Path(args.out or ".") / "zsc.csv", reports, seed, cfg)
    return 0


def cmd_cdm_sample(args) -> int:
    cfg = _load_config(args.config)
    n_paths = _count("n_paths", cfg.get("n_paths", 2000))
    seed = _master_seed(args, cfg)
    try:
        sde = SdeConfig(horizon=_real("T", cfg.get("T", 20.0)), dt=_real("dt", cfg.get("dt", 0.01)),
                        n_paths=n_paths, seed=seed)
    except ModelError as e:
        raise ConfigError(f"SDE grid: {e}") from e
    model = _resolve_model(cfg)
    if "text" in cfg:
        x_tx = _text(cfg["text"], model)
    else:
        x_tx = sample_joint(model, stream(seed, "cdm-sample-text")).x_tx
    drift_model = None
    if "train_p_flip" in cfg:
        drift_model = make_pflip_model(
            _gen_spec(cfg, p_flip=_probability("train_p_flip", cfg["train_p_flip"])))
    counts, cond = sampled_law(model, x_tx, sde, drift_model=drift_model)
    out_dir = Path(args.out or ".")
    _write_reports(out_dir / "cdm_sample.csv", [law_distance(counts, cond, sde, drift_model)],
                   seed, cfg)
    hist = {
        "build": BUILD_ID,
        "seed": seed,
        "config_hash": _config_hash(cfg),
        "text": x_tx.tolist(),
        "counts": counts.tolist(),
        "oracle_conditional": cond.tolist(),
    }
    (out_dir / "histogram.json").write_text(json.dumps(hist, sort_keys=True))
    print(f"wrote {out_dir / 'histogram.json'}")
    return 0


def cmd_vlm(args) -> int:
    cfg = _load_config(args.config)
    seed = _master_seed(args, cfg)
    model = _resolve_model(cfg)
    encoder = _resolve_encoder(cfg.get("encoder", "canonical"), model, "im")
    report = vlm_divergence(model, encoder)
    _write_reports(Path(args.out or ".") / "vlm.csv", [report], seed, cfg)
    return 0


def _stack_to_lists(stack):
    out = {"h": [level.tolist() for level in stack.h],
           "q": [level.tolist() for level in stack.q]}
    if stack.b is not None:
        out["b"] = [level.tolist() for level in stack.b]
    return out


def cmd_export_dataset(args) -> int:
    cfg = _load_config(args.config)
    n = _count("n", cfg.get("n", 10))
    noise_t = cfg.get("noise_t")
    if noise_t is not None:
        _time("noise_t", noise_t)
    seed = _master_seed(args, cfg)
    model = _resolve_model(cfg)
    out = Path(args.out or ".") / "dataset.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg_hash = _config_hash(cfg)
    with open(out, "w") as f:
        for i in range(n):
            rng = stream(seed, "export", i)
            s = sample_joint(model, rng)
            record = {
                "schema_version": 1,
                "build": BUILD_ID,
                "seed": seed,
                "config_hash": cfg_hash,
                "index": i,
                "x_r": int(s.root),
                "levels": {
                    "im": [level.tolist() for level in s.levels_im],
                    "tx": [level.tolist() for level in s.levels_tx],
                },
                "x_im": s.x_im.tolist(),
                "x_tx": s.x_tx.tolist(),
            }
            if args.with_messages:
                record["messages"] = {
                    modality: _stack_to_lists(
                        downsweep(model, modality,
                                  evidence_from_states(getattr(s, f"x_{modality}"), model.n_states),
                                  prior_mode="split")
                    )
                    for modality in ("im", "tx")
                }
            if noise_t is not None:
                z = noise_image(s.x_im, noise_t, rng).z
                record["noisy"] = {"t": noise_t, "z": z.tolist()}
                if args.with_messages:
                    ev = leaf_evidence_from_noise(z, noise_t, model.n_states)
                    stack = downsweep(model, "im", ev, prior_mode="none")
                    stack = upsweep(model, "im", stack,
                                    root_log_posterior(model, "tx", s.x_tx))
                    record["noisy"]["messages"] = _stack_to_lists(stack)
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {out} ({n} records)")
    return 0


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def _selftest_bp_vs_oracle(model, label, failures):
    table = enumerate_joint(model)
    rng = stream(123, "selftest", label)
    ok = True
    for _ in range(5):
        s = sample_joint(model, rng)
        post = root_posterior(model, "im", s.x_im)
        ok &= np.abs(post - exact_conditional_root(table, "im", s.x_im)).max() < 1e-8
        i, j = table.index("im", s.x_im), table.index("tx", s.x_tx)
        with np.errstate(divide="ignore"):
            ref = np.log(table.joint[i, j] / (table.p_im[i] * table.p_tx[j]))
        got = exact_score(model)(s.x_im, s.x_tx)
        ok &= (np.isneginf(ref) and np.isneginf(got)) or abs(got - ref) < 1e-8
        for t in (0.0, 1.0):
            noisy = noise_image(s.x_im, t, rng)
            ok &= np.abs(
                bayes_denoiser(model, noisy, s.x_tx) - exact_denoiser(model, noisy.z, t, s.x_tx, table)
            ).max() < 1e-8
        par = next_token_posteriors_parallel(model, s.x_im, s.x_tx)
        for i_pre in range(model.topology.d_tx):
            seq = next_token_posterior_bp(model, s.x_im, s.x_tx[:i_pre])
            ok &= np.abs(seq - exact_next_token(model, s.x_im, s.x_tx[:i_pre], table)).max() < 1e-8
            ok &= np.abs(par[i_pre] - seq).max() < 1e-12
    status = "PASS" if ok else "FAIL"
    print(f"{status} bp-vs-oracle [{label}]")
    if not ok:
        failures.append(f"bp-vs-oracle {label}")


def cmd_selftest(args) -> int:
    failures = []
    for label, model in (
        ("reference", reference_model()),
        ("permutation", reference_model(p_flip=0.0)),
        ("micro", micro_model()),
        ("diffusion", diffusion_model()),
    ):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # p_flip = 0 legally has B_psi = inf
                validate_model(model)
        except ModelError as e:
            print(f"FAIL validate [{label}]: {e}")
            failures.append(f"validate {label}")
            continue
        _selftest_bp_vs_oracle(model, label, failures)
    # an oracle run beyond the enumeration budget must refuse, not approximate
    from .presets import large_scale_topology

    big = ModelGenSpec(topology=large_scale_topology(), p_flip=0.2, seed=0)
    try:
        enumerate_joint(make_pflip_model(big))
        print("FAIL budget-guard (oversized enumeration did not raise)")
        failures.append("budget-guard")
    except BudgetExceeded:
        print("SKIP oracle-equivalence [large-scale] (enumeration budget exceeded)")
    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 1
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jghm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, needs_config in (
        ("gen-model", cmd_gen_model, True),
        ("sweep", cmd_sweep, True),
        ("zsc", cmd_zsc, True),
        ("cdm-sample", cmd_cdm_sample, True),
        ("vlm", cmd_vlm, True),
        ("export-dataset", cmd_export_dataset, True),
        ("selftest", cmd_selftest, False),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default=None, help="output directory")
        commands[name] = p
    commands["sweep"].add_argument("--threads", type=int, default=1,
                                   help="sweep points evaluated in parallel")
    # cdm-sample runs single-threaded; it accepts --threads so that scripts can
    # pass the same flags to sweep and cdm-sample.
    commands["cdm-sample"].add_argument("--threads", type=int, default=1, help="ignored")
    commands["export-dataset"].add_argument(
        "--with-messages", action="store_true", help="also export BP message stacks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ModelError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ModelError) else 2


if __name__ == "__main__":
    sys.exit(main())
