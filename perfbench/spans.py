"""Spans around the calls into scenemt, recorded from the benchmark's side.

`Tracer.install()` replaces selected scenemt functions and methods with
timing wrappers, in every scenemt module that holds them (so names bound by
`from .x import y` are caught too), and hooks `gc.callbacks`. Spans are not
kept one by one: each is folded into a running total keyed by its phase (the
nearest enclosing phase span, e.g. `model.train`), its parent span and its
own name, with call count, inclusive seconds, seconds spent in child spans
and a per-span unit count (graphs parsed, tape nodes, prefix tokens).
A name that no longer exists in the program is recorded as absent.
"""

from __future__ import annotations

import functools
import gc
import re
import sys
import time

AD, MODEL, SEM, MASKS, CLI = (
    "scenemt.autodiff", "scenemt.model", "scenemt.semgraph", "scenemt.masks", "scenemt.cli",
)

OPS = ("matmul", "add", "mul", "transpose", "softmax_rows", "layer_norm",
       "embedding", "relu", "cross_entropy_smoothed")
ATTENTION = ("vanilla_attention", "sasa_attention", "sacra_attention")
FAMILIES = ("binary", "scaled", "normal", "pascal", "udiscal")

PHASES = ("model.train", "model.token_accuracy", "model.translate", "cli.cmd_masks")

_count = lambda args, result: len(result)

# (module, attribute path, span name, unit counter)
TARGETS = (
    [(AD, op, f"autodiff.{op}", None) for op in OPS]
    + [
        (AD, "Tensor.backward", "autodiff.backward", None),
        (AD, "Tape.trace", "autodiff.tape", lambda a, r: len(getattr(r, "nodes", ()))),
        (MODEL, "train", "model.train", None),
        (MODEL, "token_accuracy", "model.token_accuracy", None),
        (MODEL, "translate", "model.translate", None),
        (MODEL, "Model.forward", "model.forward", None),
        (MODEL, "Model.encode", "model.encode", None),
        (MODEL, "Model.decode", "model.decode", lambda a, r: len(a[1])),
    ]
    + [(MODEL, fn, f"model.{fn}", None) for fn in ATTENTION]
    + [
        (SEM, "parse_ucca_file", "semgraph.parse_ucca", _count),
        (SEM, "extract_scenes", "semgraph.extract_scenes", None),
        (SEM, "scene_distance", "semgraph.scene_distance", None),
        (SEM, "parse_conllu", "semgraph.parse_conllu", _count),
        (SEM, "ud_tree_distances", "semgraph.ud_tree_distances", None),
        (MASKS, "MaskSpec.build", "masks.build", None),
        (MASKS, "expand_to_subwords", "masks.expand_to_subwords", None),
        (MASKS, "write_mask", "masks.write_mask", None),
        (CLI, "cmd_masks", "cli.cmd_masks", None),
    ]
)


class Tracer:
    def __init__(self):
        self.stats = {}  # (phase, parent, name) -> [calls, seconds, child seconds, units]
        self.gc = {}  # phase -> [collections, seconds, objects collected]
        self.samples = {"model.translate": []}  # per-call seconds kept for percentiles
        self.absent = []
        self._stack = []  # frames: [name, phase, child seconds]
        self._undo = []
        self._gc_start = None

    # -- installing -------------------------------------------------------------

    def install(self):
        for module, path, name, units in TARGETS:
            if not self._patch(module, path, name, units):
                self.absent.append(f"{module}.{path}")
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module_name, path, name, units):
        module = sys.modules.get(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            return False
        if owner is not module:
            raw = owner.__dict__.get(attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, units))
            else:
                wrapped = self._wrap(raw, name, units)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return True
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, units)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "scenemt":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
        return True

    def _wrap(self, fn, name, units):
        stats, stack, samples = self.stats, self._stack, self.samples
        clock = time.perf_counter
        is_phase = name in PHASES
        keep = samples.get(name)
        family_span = name == "masks.build"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = f"masks.build.{getattr(args[0], 'family', '')}" if family_span else name
            phase = span if is_phase else (parent[1] if parent else "")
            frame = [span, phase, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[2] += elapsed
                key = (phase, parent[0] if parent else "", span)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[2]
                if keep is not None:
                    keep.append(elapsed)
            if units is not None:
                entry[3] += units(args, result)
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None:
            return
        elapsed = time.perf_counter() - self._gc_start
        self._gc_start = None
        where = self._stack[-1][1] if self._stack else ""
        entry = self.gc.setdefault(where, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += info.get("collected", 0)

    # -- reading -----------------------------------------------------------------

    def total(self, name, phase=None):
        """(calls, inclusive s, self s, units) of a span, summed over parents."""
        out = [0, 0.0, 0.0, 0]
        for (ph, _parent, span), (calls, secs, child, units) in self.stats.items():
            if span == name and (phase is None or ph == phase):
                out[0] += calls
                out[1] += secs
                out[2] += secs - child
                out[3] += units
        return out

    def dump(self):
        return {
            "absent": self.absent,
            "spans": [
                dict(phase=ph, parent=parent, name=name, calls=calls,
                     seconds=secs, self_seconds=secs - child, units=units)
                for (ph, parent, name), (calls, secs, child, units) in sorted(self.stats.items())
            ],
            "gc": {ph: dict(collections=n, seconds=s, collected=c)
                   for ph, (n, s, c) in self.gc.items()},
        }


def unit_of(metric):
    if metric.endswith("_pct"):
        return "%"
    return "ms" if "ms" in re.split(r"[._]", metric) else "count"


def _per(value, n):
    return value / n if n else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr, steps=0, sentences=0, files=0):
    """Every per-layer metric; 0 where this run did not exercise the layer.

    `steps` counts traced training steps, `sentences` traced translations and
    `files` traced mask files.
    """
    m = {}
    train, dec = "model.train", "model.translate"
    ms = 1000.0

    m["autodiff.tape_nodes_per_step"] = _per(tr.total("autodiff.tape", train)[3], steps)
    m["autodiff.backward_ms_per_step"] = _per(tr.total("autodiff.backward", train)[1] * ms, steps)
    _, gc_s, gc_obj = tr.gc.get(train, (0, 0.0, 0))
    m["autodiff.gc_ms_per_step"] = _per(gc_s * ms, steps)
    m["autodiff.gc_objects_per_step"] = _per(gc_obj, steps)
    for op in OPS:
        for phase, unit, n in ((train, "step", steps), (dec, "sentence", sentences)):
            calls, secs, _, _ = tr.total(f"autodiff.{op}", phase)
            m[f"autodiff.{op}.calls_per_{unit}"] = _per(calls, n)
            m[f"autodiff.{op}.ms_per_{unit}"] = _per(secs * ms, n)

    m["model.forward_ms_per_step"] = _per(tr.total("model.forward", train)[1] * ms, steps)
    m["model.update_ms_per_step"] = _per(tr.total("model.train")[2] * ms, steps)
    for fn in ATTENTION:
        for phase, unit, n in ((train, "step", steps), (dec, "sentence", sentences)):
            calls, secs, _, _ = tr.total(f"model.{fn}", phase)
            m[f"model.{fn}.calls_per_{unit}"] = _per(calls, n)
        # ms per call is taken where the workload spends its time
        phase = train if steps else dec
        calls, secs, _, _ = tr.total(f"model.{fn}", phase)
        m[f"model.{fn}.ms_per_call"] = _per(secs * ms, calls)

    enc = tr.total("model.encode", dec)
    decode = tr.total("model.decode", dec)
    translate = tr.total("model.translate")
    m["model.encode_ms_per_sentence"] = _per(enc[1] * ms, sentences)
    m["model.decode.calls_per_sentence"] = _per(decode[0], sentences)
    m["model.decode.prefix_tokens_per_sentence"] = _per(decode[3], sentences)
    m["model.decode.ms_per_call"] = _per(decode[1] * ms, decode[0])
    m["model.beam_search.self_ms_per_sentence"] = _per(
        (translate[1] - enc[1] - decode[1]) * ms, sentences)
    times = tr.samples["model.translate"]
    m["model.translate.ms_p50"] = _percentile(times, 0.5) * ms
    m["model.translate.ms_p90"] = _percentile(times, 0.9) * ms

    calls, secs, _, graphs = tr.total("semgraph.parse_ucca")
    m["semgraph.parse_ucca_ms_per_graph"] = _per(secs * ms, graphs)
    for span, metric in (("semgraph.extract_scenes", "extract_scenes_ms_per_graph"),
                         ("semgraph.scene_distance", "scene_distance_ms_per_cover"),
                         ("semgraph.ud_tree_distances", "ud_tree_distances_ms_per_tree"),
                         ("masks.expand_to_subwords", "expand_to_subwords_ms_per_mask"),
                         ("masks.write_mask", "write_mask_ms_per_mask")):
        calls, secs, _, _ = tr.total(span)
        m[f"{span.split('.')[0]}.{metric}"] = _per(secs * ms, calls)
    calls, secs, _, trees = tr.total("semgraph.parse_conllu")
    m["semgraph.parse_conllu_ms_per_tree"] = _per(secs * ms, trees)
    for family in FAMILIES:
        calls, secs, _, _ = tr.total(f"masks.build.{family}", "cli.cmd_masks")
        m[f"masks.build_ms.{family}"] = _per(secs * ms, calls)
    m["cli.masks_self_ms_per_file"] = _per(tr.total("cli.cmd_masks")[2] * ms, files)
    return m
