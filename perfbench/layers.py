"""Per-layer tracing of torictower from outside the package.

`install(tracer)` replaces each function in `TRACED` with a wrapper, at the
module that defines it and at every other `torictower` module that bound
the same object with `from .module import name`.  A wrapper installed only
at the defining module would miss calls made through those other names.

A "span" function records one span per call: name, start, end, parent
span and op id, kept in memory until `write_spans`.  Self time is the span's
duration minus the time covered by its direct child spans; its share is
self time over the time of all ops.  A "count"
function (one called hundreds of thousands of times per op) only counts its
calls; its time stays in the caller's self time.  Extra counters are taken at
the same call boundaries.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "torictower"


# Extra counters of one call: (counters, call arguments, result, value of
# the faces_out counter when the call began).


def _halfspace(c, args, result, faces_before):
    c["lattice.halfspace_intersection.constraints"] += len(args[0])
    c["lattice.halfspace_intersection.rays_out"] += len(result[0])


def _faces(c, args, result, faces_before):
    c["lattice.Cone.faces.faces_out"] += len(result)


def _from_cones(c, args, result, faces_before):
    c["lattice.Fan.from_cones.cones_in"] += len(set(args[2]))  # args[0] is the class
    c["lattice.Fan.from_cones.cones_kept"] += len(result.maximal_cones)


def _regularity(c, args, result, faces_before):
    c["toric.regularity_subfan.cones_kept"] += len(result.maximal_cones)
    c["toric.regularity_subfan.faces_seen"] += (
        c["lattice.Cone.faces.faces_out"] - faces_before
    )


def _cartier(c, args, result, faces_before):
    c["toric.cartier_data.cones"] += len(args[0].maximal_cones)


def _build(c, args, result, faces_before):
    c["tower.build_model.top_rays"] += len(result.levels[-1].fan.all_rays)


def _lc(c, args, result, faces_before):
    c["tower.lc_place_transfer_check.vectors"] += result.checked
    c["tower.lc_place_transfer_check.skipped"] += result.skipped


def _polytope(c, args, result, faces_before):
    fan = args[0]
    c["polytope.divisor_polytope.subsets"] += math.comb(len(fan.all_rays), fan.ambient_dim)
    c["polytope.divisor_polytope.vertices"] += len(result.vertices)


def _to_json(c, args, result, faces_before):
    c["documents.Report.to_json.bytes"] += len(result.encode("utf-8"))


# (metric prefix, module, attribute path, mode, extra counters)
TRACED = (
    ("lattice.halfspace_intersection", "lattice", "halfspace_intersection", "span", _halfspace),
    ("lattice.hnf", "lattice", "hnf", "span", None),
    ("lattice.snf", "lattice", "snf", "span", None),
    ("lattice.Cone.contains", "lattice", "Cone.contains", "count", None),
    ("lattice.Cone.faces", "lattice", "Cone.faces", "span", _faces),
    ("lattice.Cone.generated_by", "lattice", "Cone.generated_by", "span", None),
    ("lattice.is_face_of", "lattice", "is_face_of", "span", None),
    ("lattice.intersect_cones", "lattice", "intersect_cones", "span", None),
    ("lattice.Fan.from_cones", "lattice", "Fan.from_cones", "span", _from_cones),
    ("lattice.fan_validate", "lattice", "fan_validate", "span", None),
    ("toric.regularity_subfan", "toric", "regularity_subfan", "span", _regularity),
    ("toric.cartier_data", "toric", "cartier_data", "span", _cartier),
    ("toric.star_subdivision", "toric", "star_subdivision", "span", None),
    ("toric.log_discrepancy", "toric", "log_discrepancy", "span", None),
    ("toric.pullback_divisor", "toric", "pullback_divisor", "span", None),
    ("tower.build_model", "tower", "build_model", "span", _build),
    ("tower.lc_place_transfer_check", "tower", "lc_place_transfer_check", "span", _lc),
    ("tower.local_model_at", "tower", "local_model_at", "span", None),
    ("tower.projective_model", "tower", "projective_model", "span", None),
    ("tower.torus_splitting_check", "tower", "torus_splitting_check", "span", None),
    ("tower.node_chart_dual_violations", "tower", "node_chart_dual_violations", "span", None),
    ("polytope.divisor_polytope", "polytope", "divisor_polytope", "span", _polytope),
    ("polytope.normalized_volume", "polytope", "normalized_volume", "span", None),
    ("documents.parse_tower", "documents", "parse_tower", "span", None),
    ("documents.emit_tower", "documents", "emit_tower", "span", None),
    ("documents.Report.to_json", "documents", "Report.to_json", "span", _to_json),
    ("verify.suite_kernel", "verify", "suite_kernel", "span", None),
    ("verify.suite_toric", "verify", "suite_toric", "span", None),
    ("verify.suite_tower", "verify", "suite_tower", "span", None),
    ("verify.suite_lc", "verify", "suite_lc", "span", None),
    ("verify.suite_basechange", "verify", "suite_basechange", "span", None),
    ("verify.suite_volume", "verify", "suite_volume", "span", None),
    ("cli.main", "cli", "main", "span", None),
)


COUNTERS = {
    "lattice.halfspace_intersection.constraints": "count",
    "lattice.halfspace_intersection.rays_out": "count",
    "lattice.Cone.faces.faces_out": "count",
    "lattice.Fan.from_cones.cones_in": "count",
    "lattice.Fan.from_cones.cones_kept": "count",
    "toric.regularity_subfan.cones_kept": "count",
    "toric.cartier_data.cones": "count",
    "tower.build_model.top_rays": "count",
    "tower.lc_place_transfer_check.vectors": "count",
    "tower.lc_place_transfer_check.skipped": "count",
    "polytope.divisor_polytope.subsets": "count",
    "polytope.divisor_polytope.vertices": "count",
    "documents.Report.to_json.bytes": "bytes",
}

# ratio name -> (numerator counter, denominator counter); 0 when never called
RATIOS = {
    "toric.regularity_subfan.kept_ratio": (
        "toric.regularity_subfan.cones_kept",
        "toric.regularity_subfan.faces_seen",
    ),
    "polytope.divisor_polytope.vertex_ratio": (
        "polytope.divisor_polytope.vertices",
        "polytope.divisor_polytope.subsets",
    ),
}


class Tracer:
    """Spans and counters of one run; `op` tags every span with the op id."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.op = None
        self.op_s = 0.0  # time of all ops
        self._stack = []  # (span index, [child time]) of the open spans

    def call(self, name, fn, extra, args, kwargs):
        stack = self._stack
        idx = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        children = [0.0]
        stack.append((idx, children))
        faces_before = self.counts["lattice.Cone.faces.faces_out"]
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.spans[idx] = (name, start, end, parent, self.op)
            self.self_s[name] += duration - children[0]
            self.counts[name + ".calls"] += 1
            if stack:
                stack[-1][1][0] += duration
        if extra is not None:
            extra(self.counts, args, result, faces_before)
        return result

    def run_op(self, op_id, fn):
        """Run one op under a root span named "op"."""
        self.op = op_id
        start = time.perf_counter()
        try:
            return self.call("op", fn, None, (), {})
        finally:
            self.op_s += time.perf_counter() - start
            self.op = None

    def metrics(self):
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for prefix, _module, _path, mode, _extra in TRACED:
            out[prefix + ".calls"] = (self.counts[prefix + ".calls"], "count")
            if mode == "span":
                out[prefix + ".self_s"] = (self.self_s[prefix], "s")
                out[prefix + ".self_share"] = (self.self_s[prefix] / self.op_s if self.op_s else 0.0, "ratio")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name], unit)
        for name, (num, den) in RATIOS.items():
            d = self.counts[den]
            out[name] = (self.counts[num] / d if d else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def _package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(module, path):
    """(owner, attribute name, function) for "func" or "Class.method"."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


def _make_wrapper(tracer, name, fn, mode, extra):
    if mode == "count":
        counts = tracer.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

    else:

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, extra, args, kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


def originals():
    """{metric prefix: the function object TRACED names, as currently bound}."""
    out = {}
    for name, module, path, _mode, _extra in TRACED:
        _owner, _attr, fn = _resolve(module, path)
        out[name] = fn.__func__ if isinstance(fn, classmethod) else fn
    return out


def install(tracer):
    """Wrap every TRACED function for `tracer`; returns an undo callable.

    The package must already be imported.  A function is wrapped at its
    defining module or class and at every package module that holds the
    same object under the same name.
    """
    undo = []
    for name, module, path, mode, extra in TRACED:
        owner, attr, original = _resolve(module, path)
        if isinstance(original, classmethod):
            wrapped = classmethod(_make_wrapper(tracer, name, original.__func__, mode, extra))
        else:
            wrapped = _make_wrapper(tracer, name, original, mode, extra)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for m in _package_modules() if m.__dict__.get(attr) is original]
        for target in targets:
            undo.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapped)

    def uninstall():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return uninstall


def unwrapped_bindings(functions):
    """Names ("module.attr" or "module.Class.attr") under which one of
    `functions` is still reachable unwrapped in the package."""
    ids = {id(f) for f in functions}
    found = []
    for m in _package_modules():
        for attr, value in vars(m).items():
            if id(value) in ids:
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for cattr, cvalue in vars(value).items():
                    if isinstance(cvalue, classmethod):
                        cvalue = cvalue.__func__
                    if id(cvalue) in ids:
                        found.append(f"{m.__name__}.{attr}.{cattr}")
    return sorted(found)
