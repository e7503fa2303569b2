"""Spans around the library's public module-level functions.

The tracer replaces, from outside, every binding of each listed function in
the loaded ``sephorn`` modules, so the pipeline's own calls (for example
``criteria`` calling its imported ``normal_form``) go through the wrapper.
Nothing in the library changes.  A listed name the library no longer has is
skipped and reports zero calls.

A span is (op, phase, name, start, end, parent, error, self time, info).
Self time is the span's duration minus the durations of its direct child
spans, so nested and recursive calls (``triple_set`` recursing into smaller
sets) are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import NamedTuple

LAYERS = (
    "bloch.validate_state",
    "bipartite.decompose_state",
    "bipartite.local_ranks",
    "bipartite.support_isometries",
    "bipartite.project_to_support",
    "bipartite.normal_form",
    "criteria.analyze",
    "criteria.two_qubit_decide",
    "criteria.ppt_check",
    "criteria.kyfan_necessary_check",
    "criteria.kyfan_sufficient_check",
    "criteria.verify_decomposition",
    "criteria.check_product_inequalities",
    "decompose.factorization_frame",
    "decompose.kyfan_bound_decomposition",
    "decompose.pull_back_filters",
    "decompose.embed_isometries",
    "decompose.werner_decompose",
    "decompose.isotropic_decompose",
    "decompose.pure_state_simplex",
    "horn.triple_set",
    "horn.all_triples",
    "horn.check_product_inequalities",
)

class Span(NamedTuple):
    op: int
    phase: int          # 0 for the warm-up pass, k >= 1 for timed pass k
    name: str
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at top level
    error: bool
    self_s: float
    info: tuple


def _info(name, args, result) -> tuple:
    """Per-call facts the derived metrics need, read defensively."""
    if name == "bipartite.normal_form":
        return (int(getattr(result, "iterations", 0)), bool(getattr(result, "converged", False)))
    if name == "criteria.verify_decomposition":
        return (bool(getattr(result, "valid", False)),)
    if name == "horn.triple_set" and len(args) >= 2:
        try:
            return (int(args[0]), int(args[1]), len(result))
        except TypeError:
            return ()
    return ()


class Tracer:
    def __init__(self, package: str = "sephorn", layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        self.spans: list[Span | None] = []
        self.recording = True
        self.op = -1
        self.phase = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _modules(self) -> dict:
        pkg = self.package
        return {("" if name == pkg else name[len(pkg) + 1:]): mod
                for name, mod in list(sys.modules.items())
                if mod is not None and (name == pkg or name.startswith(pkg + "."))}

    def install(self) -> list[str]:
        """Wrap every binding of every listed function; return missing names."""
        modules = self._modules()
        targets: dict[int, object] = {}
        canonical: dict[int, str] = {}
        missing = []
        for layer in self.layers:
            mod_name, _, attr = layer.rpartition(".")
            obj = getattr(modules.get(mod_name), attr, None)
            if not callable(obj):
                missing.append(layer)
                continue
            targets[id(obj)] = obj
            home = getattr(obj, "__module__", "") == f"{self.package}.{mod_name}"
            if id(obj) not in canonical or home:
                canonical[id(obj)] = layer
        listed = set(self.layers) - set(missing)
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if id(value) not in targets or targets[id(value)] is not value:
                    continue
                own = f"{mod_name}.{attr}"
                name = own if own in listed else canonical[id(value)]
                setattr(mod, attr, self._wrap(name, value))
                self._patched.append((mod, attr, value))
        return missing

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            error = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = Span(
                    tracer.op, tracer.phase, name, start, end, parent, error,
                    duration - frame[1], () if error else _info(name, args, result))

        return wrapper

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def since(self, mark: int) -> list[Span | None]:
        return self.spans[mark:]

    def adopt(self, mark: int, spans: list[Span]) -> None:
        """Append spans another copy of this process recorded after ``mark``.

        The copy was forked with exactly ``mark`` spans, so parent indices
        carry over unchanged.
        """
        del self.spans[mark:]
        self.spans.extend(spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                if s is not None:
                    fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


def layer_metrics(spans, timed_passes: int, layers=LAYERS,
                  failed_ops=frozenset()) -> dict[str, tuple[float, str]]:
    """Per-layer values for the warm-up pass plus one timed pass.

    Spans of phase 0 (the warm-up pass) count once; spans of the timed
    passes, which are identical whole passes, are averaged over them.  The
    derived counts leave out warm-up calls in ``failed_ops``: how far a
    call got before its budget ran out depends on the machine, and the
    counts should repeat exactly.
    """
    cold = _totals((s for s in spans if s is not None and s.phase == 0), failed_ops)
    warm = _totals((s for s in spans if s is not None and s.phase > 0), frozenset())
    per = 1.0 / timed_passes if timed_passes else 0.0

    def value(key, layer):
        return cold[key].get(layer, 0) + warm[key].get(layer, 0) * per

    out: dict[str, tuple[float, str]] = {}
    for layer in layers:
        out[f"{layer}.calls"] = (value("calls", layer), "count")
        out[f"{layer}.self_s"] = (value("self_s", layer), "s")
        out[f"{layer}.errors"] = (value("errors", layer), "count")
    nf_calls = value("derived", "nf_calls")
    ver_calls = value("derived", "ver_calls")
    out["bipartite.normal_form.sweeps"] = (value("derived", "sweeps"), "count")
    out["bipartite.normal_form.converged_ratio"] = (
        value("derived", "nf_converged") / nf_calls if nf_calls else 0.0, "ratio")
    out["criteria.verify_decomposition.pass_ratio"] = (
        value("derived", "ver_pass") / ver_calls if ver_calls else 0.0, "ratio")
    sizes = {**warm["triples"], **cold["triples"]}
    out["horn.triples"] = (float(sum(sizes.values())), "count")
    return out


def _totals(spans, failed_ops) -> dict[str, dict]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    derived = dict.fromkeys(("sweeps", "nf_calls", "nf_converged", "ver_calls", "ver_pass"), 0)
    triples: dict[tuple, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        errors[s.name] = errors.get(s.name, 0) + s.error
        if not s.info or s.op in failed_ops:
            continue
        if s.name == "bipartite.normal_form":
            derived["nf_calls"] += 1
            derived["sweeps"] += s.info[0]
            derived["nf_converged"] += s.info[1]
        elif s.name == "criteria.verify_decomposition":
            derived["ver_calls"] += 1
            derived["ver_pass"] += s.info[0]
        elif s.name == "horn.triple_set":
            triples[s.info[:2]] = s.info[2]
    return {"calls": calls, "self_s": self_s, "errors": errors, "derived": derived,
            "triples": triples}
