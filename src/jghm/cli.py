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
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
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
    make_pflip_model,
    model_from_json,
    model_to_json,
    pflip_models,
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


REQUIRED = object()  # the default of a key that a command cannot run without


def _count(value, minimum=1) -> int:
    """A count of at least `minimum`; bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"must be an integer >= {minimum}, got {value!r}")
    return value


def _seed(value) -> int:
    """A seed: an integer that fits the signed 128 bits of a stream key;
    bools and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or not -2**127 <= value < 2**127:
        raise ConfigError(f"must be an integer in [-2**127, 2**127), got {value!r}")
    return value


def _real(value):
    """A finite real number; bools, nan and integers beyond floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"must be a finite real number, got {value!r}")
    return value


def _probability(value):
    """A real number in [0, 1]; bools are rejected."""
    if not 0 <= _real(value) <= 1:
        raise ConfigError(f"must be a real number in [0, 1], got {value!r}")
    return value


def _list_of(read, value) -> list:
    """A non-empty list, each entry read by `read`."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"must be a non-empty list, got {value!r}")
    return [read(v) for v in value]


def _one_of(names, value) -> str:
    """One of `names`."""
    if not isinstance(value, str) or value not in names:
        raise ConfigError(f"must be one of {', '.join(names)}, got {value!r}")
    return value


def _model_file(path) -> JghmModel:
    """A model file as gen-model writes it; `_resolve_model` validates it."""
    if not isinstance(path, str):
        raise ConfigError(f"must be a file path, got {path!r}")
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path, or not UTF-8
        raise ConfigError(f"cannot read {path}: {e}") from e
    return model_from_json(text)


SCORES = {"exact": exact_score, "coarsened": coarsened_score,
          "constant": lambda model: constant_score()}
ENCODERS = {"canonical": canonical_encoder, "coarsened": coarsened_root_encoder,
            "constant": constant_encoder}

# One table per command: key -> (reader, default). A missing key takes its
# default, None meaning absent; a REQUIRED key cannot be missing.
_GENERATED = {
    "topology": (topology_from_json, REQUIRED),
    "model_seed": (_seed, None),  # absent: the config seed
    "seed": (_seed, 0),
    "gaussian_scale": (_real, 1.0),
    "p_flip_im": (_probability, None),
    "p_flip_tx": (_probability, None),
}
# A model file, or a generated model: when both are given, the file wins.
_MODEL = {**_GENERATED, "topology": (topology_from_json, None), "p_flip": (_probability, None),
          "model_path": (_model_file, None)}
CONFIGS = {
    "gen-model": {**_GENERATED, "p_flip": (_probability, REQUIRED)},
    "sweep": {**_GENERATED, "task": (partial(_one_of, MISSPEC_TASKS), REQUIRED),
              "p_flip_list": (partial(_list_of, _probability), REQUIRED),
              "train_p_flip": (_probability, None), "n": (_count, 2000),
              "K": (partial(_count, minimum=2), 8), "t": (check_time, 1.0)},
    "zsc": {**_MODEL, "n": (_count, 2000), "M_list": (partial(_list_of, _count), [64]),
            "score": (partial(_one_of, SCORES), "exact")},
    "cdm-sample": {**_MODEL, "n_paths": (_count, 2000), "T": (_real, 20.0), "dt": (_real, 0.01),
                   "text": (partial(_list_of, _count), None), "train_p_flip": (_probability, None)},
    "vlm": {**_MODEL, "encoder": (partial(_one_of, ENCODERS), "canonical")},
    "export-dataset": {**_MODEL, "n": (_count, 10), "noise_t": (check_time, None)},
}


def _read(key, read, value):
    """read(value): a reader checks one value and returns it; the ConfigError
    or ModelError it raises becomes a ConfigError that names the key."""
    try:
        return read(value)
    except (ConfigError, ModelError) as e:
        raise ConfigError(f"{key}: {e}") from e


def _config(args) -> dict:
    """The settings of `args.command`, read through its table before any
    model is built. A key outside the table, a null value and a missing
    REQUIRED key exit 2 naming the key. `seed` is --seed when given;
    `model_seed` falls back to the config seed, never to --seed."""
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read config {args.config}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {args.config} must be a JSON object, got {type(cfg).__name__}")
    table = CONFIGS[args.command]
    unknown = [key for key in cfg if key not in table]
    if unknown:
        raise ConfigError(f"{unknown[0]}: not a {args.command} key; "
                          f"expected one of {', '.join(table)}")
    data = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    c = {"config_hash": hashlib.sha256(data).hexdigest()[:16]}
    for key, (read, default) in table.items():
        value = cfg[key] if key in cfg else default
        if value is None and key in cfg:
            raise ConfigError(f"{key}: null is not a value; leave the key out instead")
        if value is REQUIRED:
            raise ConfigError(f"{key}: missing; {args.command} needs it")
        c[key] = None if value is None else _read(key, read, value)
    if c["model_seed"] is None:
        c["model_seed"] = c["seed"]
    if args.seed is not None:
        c["seed"] = _read("--seed", _seed, args.seed)
    return c


def _generator(c):
    """p_flip -> the model generated at that p_flip. The kernel draws are
    made here, once: every model a run builds is mixed from them, on any
    thread. A gaussian_scale that overflows them is a config error."""
    if c["topology"] is None:
        raise ConfigError("topology: missing; a generated model needs it")
    try:
        return pflip_models(ModelGenSpec(
            topology=c["topology"], p_flip=0.0, seed=c["model_seed"],  # p_flip: not read
            gaussian_scale=c["gaussian_scale"], p_flip_im=c["p_flip_im"],
            p_flip_tx=c["p_flip_tx"]))
    except ModelError as e:
        raise ConfigError(str(e)) from e


def _validate(model) -> float:
    """validate_model(model) without its warning: p_flip = 0 legally has B_psi = inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_model(model)


def _resolve_model(c, generate=None) -> JghmModel:
    """The model_path model, validated, or else the model generated at
    p_flip (by `generate`, when the run has one)."""
    model = c["model_path"]
    if model is None:
        if c["p_flip"] is None:
            raise ConfigError("p_flip: missing; give it (with topology) or model_path")
        return (generate or _generator(c))(c["p_flip"])
    _validate(model)  # corrupted files fail with the named invariant
    return model


def _write(path: Path, output, c):
    """Write one output stamped with the build, seed and config hash: RiskReports
    as CSV under a `#` header, a dict as JSON, records (an iterator, so that
    they stream) as JSON lines and a string (a model file) as it is."""
    meta = {"build": BUILD_ID, "seed": c["seed"], "config_hash": c["config_hash"]}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            note = ""
            if isinstance(output, str):
                f.write(output)
            elif isinstance(output, dict):
                f.write(json.dumps({**meta, **output}, sort_keys=True))
            elif isinstance(output, list):
                f.writelines(f"# {key}={value}\n" for key, value in meta.items())
                writer = csv.writer(f)
                writer.writerow(CSV_COLUMNS)
                writer.writerows(r.csv_row() for r in output)
                note = f" ({len(output)} rows)"
            else:
                n = 0
                for n, record in enumerate(output, 1):
                    f.write(json.dumps({**meta, **record}, sort_keys=True) + "\n")
                note = f" ({n} records)"
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    print(f"wrote {path}{note}")


# ---------------------------------------------------------------------------
# Subcommands: config `c` and flags `args` -> {file name: output}
# ---------------------------------------------------------------------------


def cmd_gen_model(c, args) -> dict:
    model = _generator(c)(c["p_flip"])
    print(f"effective B_psi = {_validate(model)}")
    return {"model.json": model_to_json(model)}


def cmd_sweep(c, args) -> dict:
    kwargs = {"n": c["n"], "seed": c["seed"], "K": c["K"], "t": c["t"]}
    generate = _generator(c)
    train_model = None if c["train_p_flip"] is None else generate(c["train_p_flip"])

    def run_point(p):
        test_model = generate(p)
        if train_model is None:
            return [misspec_bp_eval(test_model, test_model, c["task"], **kwargs).bayes]
        res = misspec_bp_eval(train_model, test_model, c["task"], **kwargs)
        return [res.bayes, res.risk, res.excess]

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run_point, c["p_flip_list"]))
    else:
        results = [run_point(p) for p in c["p_flip_list"]]
    return {"sweep.csv": [r for rows in results for r in rows]}


def cmd_zsc(c, args) -> dict:
    model = _resolve_model(c)
    return {"zsc.csv": zsc_kl_sweep(model, SCORES[c["score"]](model), c["M_list"], c["n"], c["seed"])}


def cmd_cdm_sample(c, args) -> dict:
    try:
        sde = SdeConfig(horizon=c["T"], dt=c["dt"], n_paths=c["n_paths"], seed=c["seed"])
    except ModelError as e:
        raise ConfigError(f"T/dt: {e}") from e
    # a drift model shares the test model's draws when both are generated
    generate = None if c["train_p_flip"] is None else _generator(c)
    model = _resolve_model(c, generate)
    d_tx, S = model.topology.d_tx, model.n_states
    if c["text"] is None:
        x_tx = sample_joint(model, stream(c["seed"], "cdm-sample-text")).x_tx
    elif len(c["text"]) != d_tx or max(c["text"]) > S:  # the table read integers >= 1
        raise ConfigError(f"text: must be a list of {d_tx} states in [1, {S}], got {c['text']}")
    else:
        x_tx = np.asarray(c["text"], dtype=np.int64)
    drift_model = None if generate is None else generate(c["train_p_flip"])
    counts, cond = sampled_law(model, x_tx, sde, drift_model=drift_model)
    return {"cdm_sample.csv": [law_distance(counts, cond, sde, drift_model)],
            "histogram.json": {"text": x_tx.tolist(), "counts": counts.tolist(),
                               "oracle_conditional": cond.tolist()}}


def cmd_vlm(c, args) -> dict:
    model = _resolve_model(c)
    return {"vlm.csv": [vlm_divergence(enumerate_joint(model), ENCODERS[c["encoder"]](model, "im"))]}


def _stack_to_lists(stack):
    out = {"h": [level.tolist() for level in stack.h],
           "q": [level.tolist() for level in stack.q]}
    if stack.b is not None:
        out["b"] = [level.tolist() for level in stack.b]
    return out


def cmd_export_dataset(c, args) -> dict:
    noise_t = c["noise_t"]
    model = _resolve_model(c)  # here, so that a bad model writes no file

    def records():
        for i in range(c["n"]):
            rng = stream(c["seed"], "export", i)
            s = sample_joint(model, rng)
            record = {
                "schema_version": 1,
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
            yield record

    return {"dataset.jsonl": records()}


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
                bayes_denoiser(model, noisy, s.x_tx) - exact_denoiser(table, noisy.z, t, s.x_tx)
            ).max() < 1e-8
        par = next_token_posteriors_parallel(model, s.x_im, s.x_tx)
        for i_pre in range(model.topology.d_tx):
            seq = next_token_posterior_bp(model, s.x_im, s.x_tx[:i_pre])
            ok &= np.abs(seq - exact_next_token(table, s.x_im, s.x_tx[:i_pre])).max() < 1e-8
            ok &= np.abs(par[i_pre] - seq).max() < 1e-12
    status = "PASS" if ok else "FAIL"
    print(f"{status} bp-vs-oracle [{label}]")
    if not ok:
        failures.append(f"bp-vs-oracle {label}")


def cmd_selftest() -> int:
    failures = []
    for label, model in (
        ("reference", reference_model()),
        ("permutation", reference_model(p_flip=0.0)),
        ("micro", micro_model()),
        ("diffusion", diffusion_model()),
    ):
        try:
            _validate(model)
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


COMMANDS = {"gen-model": cmd_gen_model, "sweep": cmd_sweep, "zsc": cmd_zsc,
            "cdm-sample": cmd_cdm_sample, "vlm": cmd_vlm, "export-dataset": cmd_export_dataset}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jghm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default=None, help="output directory")
        # cdm-sample runs single-threaded; it accepts --threads so that
        # scripts can pass the same flags to sweep and cdm-sample.
        if name in ("sweep", "cdm-sample"):
            p.add_argument("--threads", type=int, default=1,
                           help="sweep points evaluated in parallel (cdm-sample: ignored)")
        if name == "export-dataset":
            p.add_argument("--with-messages", action="store_true",
                           help="also export BP message stacks")
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    """Run one command: read its config, run it, then write each output it
    returns into --out, so that a run that fails before then writes nothing."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        c = _config(args)
        if "threads" in args:
            _read("--threads", _count, args.threads)
        for name, output in COMMANDS[args.command](c, args).items():
            _write(Path(args.out or ".") / name, output, c)
        return 0
    except (ConfigError, ModelError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ModelError) else 2


if __name__ == "__main__":
    sys.exit(main())
