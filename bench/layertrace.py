"""Span recorder for the traced run of the benchmark.

`Patches` replaces the public functions of each jghm layer by wrappers that
record one span per call (name, start, end, parent, CLI call id) plus a few
facts read from the call's arguments, return value or exception. The spans
stay in memory; `layer_metrics` reduces them at the end and `write_spans`
dumps them. Untraced runs never build `Patches`, so the end-to-end metrics
are taken on the unpatched package.
"""

import functools
import gzip
import json
import math
import sys
import time

import numpy as np


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _rows(shape, core):
    return math.prod(shape[:len(shape) - core])


def _downsweep_facts(args, kwargs, result):
    model, modality = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "modality")
    evidence = _arg(args, kwargs, 2, "evidence")
    rows = _rows(np.shape(evidence), 2)
    S = model.n_states
    sizes = (1,) + model.topology.level_sizes(modality)
    messages = sum(sizes[1:])
    # Computed from shapes, not counted: per child-to-parent message one
    # (S x S) matvec in the log domain (2 S^2 flops plus about 8 S for the
    # max/exp/log/normalize passes); per level the float64 arrays read and
    # written are h_l, q_l and h_{l-1}.
    flop = rows * messages * (2 * S * S + 8 * S)
    moved = 8 * rows * S * sum(2 * sizes[lv] + sizes[lv - 1] for lv in range(1, len(sizes)))
    return {"rows": rows, "node_beliefs": rows * messages, "flop": flop, "bytes": moved}


def _upsweep_facts(args, kwargs, result):
    model, modality = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "modality")
    leaf = result.b[-1]
    rows = _rows(leaf.shape, 2)
    return {"rows": rows,
            "node_beliefs": rows * sum(model.topology.level_sizes(modality)),
            "neg_inf": int(np.count_nonzero(np.isneginf(leaf)))}


def _root_log_posterior_facts(args, kwargs, result):
    return {"rows": _rows(np.shape(_arg(args, kwargs, 2, "leaves")), 1),
            "modality": _arg(args, kwargs, 1, "modality"),
            "neg_inf": int(np.count_nonzero(np.isneginf(result)))}


def _rows_of(i, name, core):
    def facts(args, kwargs, result):
        return {"rows": _rows(np.shape(_arg(args, kwargs, i, name)), core)}
    return facts


def _denoiser_facts(args, kwargs, result):
    return {"rows": _rows(np.shape(_arg(args, kwargs, 1, "noisy").z), 1)}


def _size_facts(i):
    def facts(args, kwargs, result):
        return {"rows": int(_arg(args, kwargs, i, "size"))}
    return facts


def _sde_facts(args, kwargs, result):
    return {"paths": int(result.shape[0])}


# (module, attribute, span name, facts extractor)
TARGETS = [
    ("jghm.cli", "main", "cli.main", None),
    ("jghm.model", "make_pflip_model", "model.make_pflip_model", None),
    ("jghm.rng", "stream", "rng.stream", None),
    ("jghm.sampler", "sample_joint_batch", "sampler.sample_joint_batch", _size_facts(1)),
    ("jghm.sampler", "sample_marginal_leaves", "sampler.sample_marginal_leaves", _size_facts(2)),
    ("jghm.bp", "downsweep", "bp.downsweep", _downsweep_facts),
    ("jghm.bp", "upsweep", "bp.upsweep", _upsweep_facts),
    ("jghm.bp", "root_log_posterior", "bp.root_log_posterior", _root_log_posterior_facts),
    ("jghm.bp", "next_token_posteriors_parallel", "bp.next_token_posteriors_parallel",
     _rows_of(2, "x_tx", 1)),
    ("jghm.bp", "bayes_denoiser", "bp.bayes_denoiser", _denoiser_facts),
    ("jghm.metrics", "misspec_bp_eval", "metrics.misspec_bp_eval", None),
    ("jghm.oracle", "enumerate_joint", "oracle.enumerate_joint", None),
    ("jghm.diffusion", "sample_image_sde", "diffusion.sample_image_sde", _sde_facts),
]
METHOD_TARGETS = [
    ("jghm.encoders", "BilinearScore", "from_features", "encoders.BilinearScore.from_features"),
]


class Recorder:
    """In-memory span store. A span is [call_id, name, start, end, parent, facts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = -1
        self.errors = {}  # (layer, exception type) -> count, once per exception
        self._raised = []  # exceptions already counted (kept alive so ids stay unique)

    def wrap(self, name, fn, facts):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.call_id, name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[3] = time.perf_counter()
                if not any(e is seen for seen in self._raised):
                    self._raised.append(e)
                    key = (layer, type(e).__name__)
                    self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                self.stack.pop()
            span[3] = time.perf_counter()
            if facts is not None:
                span[5] = facts(args, kwargs, result)
            return result

        return traced


class Patches:
    """The wrapped functions, switched on before a traced call and off after.

    Every jghm module that holds a target is patched, including names rebound
    by importing modules (e.g. jghm.diffusion.bayes_denoiser)."""

    def __init__(self, recorder):
        self.swaps = []  # (owner, attribute, original, wrapped)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "jghm" or n.startswith("jghm.")]
        for module_name, attr, name, facts in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = recorder.wrap(name, original, facts)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self.swaps.append((module, key, original, wrapped))
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = getattr(cls, attr)
            self.swaps.append((cls, attr, original, recorder.wrap(name, original, None)))

    def apply(self, traced):
        for owner, attr, original, wrapped in self.swaps:
            setattr(owner, attr, wrapped if traced else original)


def self_times(spans):
    """Span duration minus the time covered by its direct child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - c for span, c in zip(spans, child)]


def _has_ancestor(spans, i, name):
    i = spans[i][4]
    while i >= 0:
        if spans[i][1] == name:
            return True
        i = spans[i][4]
    return False


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(recorder, items):
    """Per-layer metrics of the traced pass; `items` is what it delivered.

    Counts and times are per traced CLI call, so they do not depend on how
    many calls fit in the run; `cli.main.calls` is the base of every ratio.
    """
    spans = recorder.spans
    own = self_times(spans)
    names = [name for _, _, name, _ in TARGETS] + [name for *_, name in METHOD_TARGETS]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    sums = {}
    for i, span in enumerate(spans):
        name = span[1]
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += span[3] - span[2]
        for key, value in (span[5] or {}).items():
            if not isinstance(value, str):
                sums[(name, key)] = sums.get((name, key), 0) + value
    n = calls["cli.main"]
    per_call = functools.partial(_ratio, b=n)

    def fact(name, key):
        return sums.get((name, key), 0)

    m = {"cli.main.calls": (n, "count")}
    for name in names:
        if name != "cli.main":
            m[f"{name}.calls"] = (per_call(calls[name]), "count/call")
        m[f"{name}.self_s"] = (per_call(self_s[name]), "s/call")
    for name in ("sampler.sample_joint_batch", "sampler.sample_marginal_leaves",
                 "bp.root_log_posterior", "bp.next_token_posteriors_parallel",
                 "bp.bayes_denoiser"):
        m[f"{name}.rows"] = (per_call(fact(name, "rows")), "rows/call")
    for name in ("bp.root_log_posterior", "bp.next_token_posteriors_parallel",
                 "bp.bayes_denoiser"):
        m[f"{name}.share"] = (_ratio(total_s[name], total_s["cli.main"]), "frac")
    for name in ("bp.downsweep", "bp.upsweep"):
        m[f"{name}.node_beliefs"] = (per_call(fact(name, "node_beliefs")), "count/call")
    m["bp.downsweep.computed_mflop"] = (per_call(fact("bp.downsweep", "flop")) / 1e6, "Mflop/call")
    m["bp.downsweep.computed_mb"] = (per_call(fact("bp.downsweep", "bytes")) / 1e6, "MB/call")
    m["bp.node_beliefs_per_s"] = (
        _ratio(fact("bp.downsweep", "node_beliefs") + fact("bp.upsweep", "node_beliefs"),
               self_s["bp.downsweep"] + self_s["bp.upsweep"]), "1/s")

    # A span whose call raised has no facts.
    tx_in_denoise = sum(1 for s in spans if s[1] == "bp.root_log_posterior"
                        and (s[5] or {}).get("modality") == "tx" and s[4] >= 0
                        and spans[s[4]][1] == "bp.bayes_denoiser")
    m["bp.tx_posteriors_per_denoise"] = (_ratio(tx_in_denoise, calls["bp.bayes_denoiser"]), "ratio")
    m["bp.neg_inf_outputs"] = (
        per_call(fact("bp.root_log_posterior", "neg_inf") + fact("bp.upsweep", "neg_inf")),
        "count/call")
    m["bp.model_errors"] = (per_call(recorder.errors.get(("bp", "ModelError"), 0)), "count/call")

    drift = sum(1 for s in spans if s[1] == "bp.bayes_denoiser" and s[4] >= 0
                and spans[s[4]][1] == "diffusion.sample_image_sde")
    m["diffusion.drift_calls"] = (per_call(drift), "count/call")
    m["diffusion.paths_simulated_per_reported"] = (
        _ratio(fact("diffusion.sample_image_sde", "paths"), items), "ratio")
    m["oracle.enumerations_per_call"] = (per_call(calls["oracle.enumerate_joint"]), "ratio")
    m["oracle.budget_refusals"] = (
        per_call(recorder.errors.get(("oracle", "BudgetExceeded"), 0)), "count/call")
    rows_in_eval = sum((s[5] or {}).get("rows", 0) for i, s in enumerate(spans)
                       if s[1] == "bp.root_log_posterior"
                       and _has_ancestor(spans, i, "metrics.misspec_bp_eval"))
    m["metrics.posterior_rows_per_item"] = (_ratio(rows_in_eval, items), "rows/item")
    return m


def write_spans(recorder, path):
    """Write the spans as gzipped JSON lines, one span per line."""
    with gzip.open(path, "wt") as f:
        for i, (call, name, start, end, parent, facts) in enumerate(recorder.spans):
            f.write(json.dumps({"id": i, "call": call, "name": name, "start": start,
                                "end": end, "parent": parent, "facts": facts}) + "\n")
