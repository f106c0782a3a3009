"""In-memory span tracer installed around realtrop's public functions.

The tracer does not touch the library's source.  It rebinds each traced
function in every ``realtrop`` module that holds it (``det`` lives in
``puiseux`` and is imported by ``matroids`` and ``seminorms``), and wraps
``__post_init__`` and ``value`` on the classes whose construction or
evaluation is a layer.  Calls that look the name up at call time, as
module globals, package attributes or class attributes, then go through
the wrapper.

Each span records its name, start, end, parent span and instance id.
Self time is a span's duration minus the durations of its direct child
spans; in one thread the children never overlap, so this equals the
duration minus the part of the interval the children cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# span name -> (module, attribute) of the function to wrap
FUNCTIONS = {
    "puiseux.det": ("puiseux", "det"),
    "puiseux.column_rank": ("puiseux", "column_rank"),
    "puiseux.parse_puiseux": ("puiseux", "parse_puiseux"),
    "hyperfields.hyper_mul": ("hyperfields", "hyper_mul"),
    "hyperfields.hyper_sum": ("hyperfields", "hyper_sum"),
    "linalg.inverse": ("linalg", "inverse"),
    "linalg.rref": ("linalg", "rref"),
    "matroids.gp_from_matrix": ("matroids", "gp_from_matrix"),
    "matroids.check_gp_relations": ("matroids", "check_gp_relations"),
    "matroids.circuits_from_matrix": ("matroids", "circuits_from_matrix"),
    "matroids.check_circuit_axioms": ("matroids", "check_circuit_axioms"),
    "matroids.cocircuits_from_gp": ("matroids", "cocircuits_from_gp"),
    "matroids.covector_closure": ("matroids", "covector_closure"),
    "matroids.check_covector_axioms": ("matroids", "check_covector_axioms"),
    "tropical.trop_r_point": ("tropical", "trop_r_point"),
    "tropical.linear_space_member": ("tropical", "linear_space_member"),
    "tropical.bergman_fan": ("tropical", "bergman_fan"),
    "tropical.bergman_member": ("tropical", "bergman_member"),
    "seminorms.diagonalize": ("seminorms", "diagonalize"),
    "seminorms.scaled_cocircuit_decomposition": ("seminorms", "scaled_cocircuit_decomposition"),
    "seminorms.decomposition_value": ("seminorms", "decomposition_value"),
    "seminorms.project_point": ("seminorms", "project_point"),
    "cli.main": ("cli", "main"),
}

# span name -> (module, class, method) wrapped on the class
METHODS = {
    "tropical.LinearEmbedding": ("tropical", "LinearEmbedding", "__post_init__"),
    "seminorms.DiagonalSeminorm": ("seminorms", "DiagonalSeminorm", "__post_init__"),
    "seminorms.value": ("seminorms", "DiagonalSeminorm", "value"),
}


def _result_counts(name, result):
    """Results a span returns, for the per-result ratios and totals."""
    if name == "matroids.circuits_from_matrix":
        return {"circuits": len(result)}
    if name == "matroids.check_gp_relations":
        return {"pairs": result.info.get("pairs_checked", 0)}
    if name == "matroids.covector_closure":
        return {"covectors": len(result.vectors), "covers": len(result.covers)}
    if name == "tropical.bergman_fan":
        return {"cones": len(result.cones)}
    return None


class Tracer:
    """Span recorder; every wrapper is a pass-through while inactive."""

    def __init__(self):
        self.active = False
        self.instance = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one tuple per span: (name id, start, end, parent span or -1, instance)
        self.spans: list[tuple] = []
        # open frames: [span index, name, start, child time, det mark]
        self._stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.dets_inside: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._dets = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _enter(self, name: str) -> list:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self._name_id(name), 0.0, 0.0, parent, self.instance))
        frame = [idx, name, time.perf_counter(), 0.0, self._dets]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, name, start, child, mark = frame
        dur = end - start
        nid, _, _, parent, inst = self.spans[idx]
        self.spans[idx] = (nid, start, end, parent, inst)
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)
        self.dets_inside[name] = self.dets_inside.get(name, 0) + (self._dets - mark)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "puiseux.det":

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                rows = args[0] if args else kwargs["rows"]
                tracer._dets += 1
                if len(rows) >= 6:
                    tracer.count("det.n6plus")
                if any(not _is_constant(x) for row in rows for x in row):
                    tracer.count("det.series")
                frame = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

            return wrapped

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            extra = _result_counts(name, result)
            if extra:
                for key, n in extra.items():
                    tracer.count(f"{name}.{key}", n)
            return result

        return wrapped

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every loaded realtrop module."""
        import realtrop

        mods = [m for k, m in sorted(sys.modules.items()) if k == "realtrop" or k.startswith("realtrop.")]
        for name, (modname, attr) in FUNCTIONS.items():
            self._rebind(mods, getattr(getattr(realtrop, modname), attr), name)
        # jsonio's encoders and decoders are one layer boundary each
        jsonio = realtrop.jsonio
        for attr, obj in sorted(vars(jsonio).items()):
            if not callable(obj) or getattr(obj, "__module__", None) != jsonio.__name__:
                continue
            if attr.endswith("_to_json"):
                self._rebind(mods, obj, "jsonio.encode")
            elif attr.endswith("_from_json") or attr == "parse_point_literal":
                self._rebind(mods, obj, "jsonio.decode")
        for name, (modname, clsname, meth) in METHODS.items():
            cls = getattr(getattr(realtrop, modname), clsname)
            self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
        rt = realtrop.hyperfields.RT
        original = rt.__dict__["__post_init__"]
        tracer = self

        @functools.wraps(original)
        def validated(obj):
            if tracer.active:
                tracer.count("RT.validated")
            original(obj)

        self._patch(rt, "__post_init__", validated)

    def _rebind(self, mods, original, name: str) -> None:
        wrapped = self._wrap(name, original)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span, in start order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tinstance\n")
            for i, (nid, start, end, parent, inst) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{inst}\n")


def _is_constant(x) -> bool:
    terms = getattr(x, "terms", None)
    if terms is None:  # ints and Fractions before coercion
        return True
    return not terms or (len(terms) == 1 and terms[0][1] == 0)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of what the tracer recorded: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (t.calls.get(name, 0), "count")

    def self_s(name):
        out[f"{name}.self_s"] = (t.self_s.get(name, 0.0), "s")

    def count(metric, key):
        out[metric] = (t.counts.get(key, 0), "count")

    def ratio(metric, num, den):
        out[metric] = (num / den if den else 0.0, "ratio")

    det_calls = t.calls.get("puiseux.det", 0)
    calls("puiseux.det")
    self_s("puiseux.det")
    count("puiseux.det.calls_n6plus", "det.n6plus")
    ratio("puiseux.det.series_share", t.counts.get("det.series", 0), det_calls)
    for name in ("puiseux.column_rank", "puiseux.parse_puiseux",
                 "hyperfields.hyper_mul", "hyperfields.hyper_sum"):
        calls(name)
        self_s(name)
    count("hyperfields.RT.validated", "RT.validated")
    for name in ("linalg.inverse", "linalg.rref"):
        calls(name)
        self_s(name)

    self_s("matroids.gp_from_matrix")
    out["matroids.gp_from_matrix.minors"] = (
        t.dets_inside.get("matroids.gp_from_matrix", 0), "count")
    self_s("matroids.check_gp_relations")
    count("matroids.check_gp_relations.pairs", "matroids.check_gp_relations.pairs")
    cfm = "matroids.circuits_from_matrix"
    self_s(cfm)
    count(f"{cfm}.circuits", f"{cfm}.circuits")
    ratio(f"{cfm}.dets_per_circuit", t.dets_inside.get(cfm, 0), t.counts.get(f"{cfm}.circuits", 0))
    self_s("matroids.check_circuit_axioms")
    self_s("matroids.cocircuits_from_gp")
    self_s("matroids.covector_closure")
    count("matroids.covector_closure.covectors", "matroids.covector_closure.covectors")
    count("matroids.covector_closure.covers", "matroids.covector_closure.covers")
    self_s("matroids.check_covector_axioms")

    self_s("tropical.LinearEmbedding")
    for name in ("tropical.trop_r_point", "tropical.linear_space_member"):
        calls(name)
        self_s(name)
    self_s("tropical.bergman_fan")
    count("tropical.bergman_fan.cones", "tropical.bergman_fan.cones")
    calls("tropical.bergman_member")
    self_s("tropical.bergman_member")

    self_s("seminorms.DiagonalSeminorm")
    calls("seminorms.value")
    self_s("seminorms.value")
    ratio("seminorms.value.dets_per_call", t.dets_inside.get("seminorms.value", 0),
          t.calls.get("seminorms.value", 0))
    for name in ("seminorms.diagonalize", "seminorms.scaled_cocircuit_decomposition",
                 "seminorms.decomposition_value", "seminorms.project_point"):
        self_s(name)

    self_s("jsonio.decode")
    self_s("jsonio.encode")
    calls("cli.main")
    self_s("cli.main")
    return out
