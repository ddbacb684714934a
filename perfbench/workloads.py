"""The seeded workloads of the torictower benchmark.

`make_ops(workload, seed, seconds)` turns a seed into the list of operations
one run issues, in order.  The same seed and seconds give the same list.
Every operation is a fresh (input, command) pair: no pair repeats within a
run, so a cache that outlives one operation only helps where distinct
inputs really share work.

The size of each workload scales with `seconds`.  The constants below were
set so that a run at 30 seconds does about 20 seconds of timed work at the
nominal speed of `speed.py` (20 to 35 s of wall time on a loaded 2-core
x86-64 container with CPython 3.11), at the commit that added this
benchmark.

- acceptance: the desk-scale tower family `verify.random_towers(count, seed)`
  through `build`, `map-to-proj`, `lc-check`, `local-model` (depth >= 2) and
  `base-change --on-boundary`, then one `verify --suite all`.
- stress: the fixed 104-ray stress tower through `build`,
  `local-model --level <top>`, `lc-check` and `map-to-proj`, and seeded
  towers of the shape `N N P N N X` over p=2 through `build` only.  The
  shaped towers' cost varies about 40-fold between draws; through all four
  commands a single draw moved the run's wall time by a fifth.
- complete: seeded complete fans, products of two projective-space fans
  refined by a chain of star subdivisions, through `fan_validate`,
  `cartier_data`, `divisor_polytope`, `normalized_volume` and
  `log_discrepancy`, called as library functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction

ACCEPTANCE_TOWERS_PER_S = 28
STRESS_SHAPED_PER_S = 0.1
COMPLETE_FANS_PER_S = 0.4
COMPLETE_SUBDIVISIONS = {5: 6, 6: 4}
LC_SAMPLES = 50

# The near-cap stress tower: p=2, 104 top rays, 8 maximal cones.
STRESS_TOWER = {
    "format_version": "1",
    "base_dim": "2",
    "moves": [
        {"type": "node", "alpha_exponents": [], "t_exponents": ["2", "2"]},
        {"type": "node", "alpha_exponents": ["0"], "t_exponents": ["2", "2"]},
        {"type": "product"},
        {"type": "node", "alpha_exponents": ["1", "1", "1"], "t_exponents": ["2", "1"]},
        {"type": "node", "alpha_exponents": ["2", "0", "1", "0"], "t_exponents": ["1", "2"]},
        {"type": "product"},
        {"type": "node", "alpha_exponents": ["2", "2", "2", "0", "1", "0"], "t_exponents": ["1", "2"]},
        {"type": "node", "alpha_exponents": ["1", "-1", "1", "-1", "1", "-1", "1"], "t_exponents": ["1", "-1"]},
    ],
}
STRESS_SHAPE = "NNPNNX"


def _tt(name):
    return sys.modules[f"torictower.{name}"]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Op:
    """One timed operation.

    `run()` does the timed work and returns its result; `check(result)`
    returns an error message or None; `digest_of(result)` is the digest
    compared with the golden file; `golden_key` identifies the (input,
    command) pair across runs and seeds.  `props` may record the input's
    size from the result.
    """

    __slots__ = ("key", "command", "golden_key", "run", "check", "digest_of", "props")

    def __init__(self, key, command, golden_key, run, check, digest_of, props=None):
        self.key = key
        self.command = command
        self.golden_key = golden_key
        self.run = run
        self.check = check
        self.digest_of = digest_of
        self.props = props


# ---------------------------------------------------------------------------
# CLI operations


class CliResult:
    __slots__ = ("rc", "out", "err")

    def __init__(self, rc, out, err):
        self.rc, self.out, self.err = rc, out, err


def run_cli(argv, doc):
    """`torictower.cli.main(argv)` in-process, `doc` on stdin, output captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = _tt("cli").main(argv)
    finally:
        sys.stdin = saved
    return CliResult(rc, out.getvalue(), err.getvalue())


def _cli_op(key, argv, doc, check=None, props=None):
    command = argv[0]

    def run():
        return run_cli(argv, doc)

    def full_check(res):
        if res.rc != 0:
            return f"exit {res.rc}: {res.err.strip()[:200]}"
        return check(res.out) if check else None

    golden_key = digest(json.dumps(argv) + "\0" + doc)
    return Op(key, command, golden_key, run, full_check, lambda res: digest(res.out), props)


def _check_build(depth):
    def check(out):
        levels = json.loads(out)["data"]["levels"]
        if len(levels) != depth:
            return f"build reported {len(levels)} levels, expected {depth}"
        return None

    return check


def _build_props(res):
    top = json.loads(res.out)["data"]["levels"][-1]
    return {k: int(top[k]) for k in ("ray_count", "maximal_cone_count", "ambient_dim")}


def _check_counts(out):
    counts = json.loads(out)["counts"]
    checked, passed, skipped = (int(counts[k]) for k in ("checked", "passed", "skipped"))
    if checked != passed + skipped:
        return f"checked {checked} != passed {passed} + skipped {skipped}"
    return None


def _check_local_model(levels):
    def check(out):
        got = [int(level["level"]) for level in json.loads(out)["data"]["levels"]]
        return None if got == levels else f"local-model levels {got}, expected {levels}"

    return check


def _check_base_change(spec, orders):
    """The transformed node exponents, recomputed independently."""
    expected = []
    for move in spec.moves:
        if hasattr(move, "t_exponents"):
            t = sum(c * n for c, n in zip(orders, move.t_exponents))
            expected.append({"type": "node", "alpha_exponents": [str(x) for x in move.alpha_exponents],
                             "t_exponents": [str(t)]})
        else:
            expected.append({"type": "product"})

    def check(out):
        doc = json.loads(out)
        if doc["base_dim"] != "1" or doc["moves"] != expected:
            return "base-change output differs from the recomputed transform"
        return None

    return check


def _tower_ops(prefix, spec, doc, lc_seed, local_level=None):
    """build, local-model, lc-check and map-to-proj on one tower."""
    depth = spec.depth
    ops = [_cli_op(f"{prefix}.build", ["build", "--input", "-"], doc, _check_build(depth), _build_props)]
    if depth >= 2:
        argv = ["local-model", "--input", "-"]
        levels = list(range(2, depth + 1))
        if local_level is not None:
            argv += ["--level", str(local_level)]
            levels = [local_level]
        ops.append(_cli_op(f"{prefix}.local-model", argv, doc, _check_local_model(levels)))
    ops.append(_cli_op(
        f"{prefix}.lc-check",
        ["lc-check", "--input", "-", "--samples", str(LC_SAMPLES), "--seed", str(lc_seed)],
        doc,
        _check_counts,
    ))
    ops.append(_cli_op(f"{prefix}.map-to-proj", ["map-to-proj", "--input", "-"], doc))
    return ops


def acceptance_ops(seed, seconds):
    documents = _tt("documents")
    count = max(1, round(ACCEPTANCE_TOWERS_PER_S * seconds))
    specs = _tt("verify").random_towers(count, seed)
    rng = random.Random(f"acceptance:{seed}")
    ops = []
    for i, spec in enumerate(specs):
        doc = documents.emit_tower(spec)
        prefix = f"t{i:04d}"
        ops += _tower_ops(prefix, spec, doc, rng.randrange(2**32))
        orders = [rng.randint(0, 3) for _ in range(spec.base_dim)]
        ops.append(_cli_op(
            f"{prefix}.base-change",
            ["base-change", "--input", "-", "--orders", ",".join(map(str, orders)), "--on-boundary"],
            doc,
            _check_base_change(spec, orders),
        ))
    ops.append(_cli_op("verify", ["verify", "--suite", "all", "--seed", str(seed)], ""))
    return ops, {"towers": count, "family": "verify.random_towers(count, seed)",
                 "max_p": 3, "max_d": 5, "max_exponent": 3, "lc_samples": LC_SAMPLES,
                 "base_change_orders": "uniform in 0..3"}


def shaped_tower(rng):
    """A tower of shape N N P N N X over p=2: growth node exponents in {1, 2},
    final node exponents in {-1, 1}."""
    tower = _tt("tower")
    moves = []
    for k, kind in enumerate(STRESS_SHAPE):
        if kind == "P":
            moves.append(tower.ProductMove())
            continue
        values = (1, 2) if kind == "N" else (-1, 1)
        moves.append(tower.NodeMove(
            alpha_exponents=tuple(rng.choice(values) for _ in range(k)),
            t_exponents=tuple(rng.choice(values) for _ in range(2)),
        ))
    return tower.TowerSpec(base_dim=2, moves=tuple(moves))


def stress_ops(seed, seconds):
    documents = _tt("documents")
    rng = random.Random(f"stress:{seed}")
    shaped = max(1, round(STRESS_SHAPED_PER_S * seconds))
    doc = json.dumps(STRESS_TOWER, indent=2, sort_keys=True) + "\n"
    spec = documents.parse_tower(doc)
    ops = _tower_ops("fixed", spec, doc, rng.randrange(2**32), local_level=spec.depth)
    for i in range(shaped):
        spec = shaped_tower(rng)
        ops.append(_cli_op(f"s{i:02d}.build", ["build", "--input", "-"], documents.emit_tower(spec),
                           _check_build(spec.depth), _build_props))
    return ops, {"fixed_tower": "ROADMAP stress tower", "shaped_towers": shaped, "shaped_commands": ["build"],
                 "shape": STRESS_SHAPE, "p": 2, "growth_exponents": [1, 2],
                 "final_exponents": [-1, 1], "lc_samples": LC_SAMPLES}


# ---------------------------------------------------------------------------
# library operations on complete fans


def _lib_op(key, command, params, run, check, canonical, props=None):
    golden_key = digest(f"{command}\0{params!r}")
    return Op(key, command, golden_key, run, check, lambda res: digest(repr(canonical(res))), props)


def _refine(n, a, steps):
    lattice, toric = _tt("lattice"), _tt("toric")
    fan = lattice.product_fan(lattice.projective_fan(a), lattice.projective_fan(n - a))
    for pick, coeffs in steps:
        cone = fan.maximal_cones[pick % len(fan.maximal_cones)]
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, cone.generators)) for i in range(n))
        fan = toric.star_subdivision(fan, v)
    return fan


def _fan_canonical(fan):
    return [c.generators for c in fan.maximal_cones]


def _fan_props(fan):
    rays = len(fan.all_rays)
    return {"ray_count": rays, "maximal_cone_count": len(fan.maximal_cones),
            "subsets": math.comb(rays, fan.ambient_dim)}


def _check_cartier(state):
    def check(cd):
        fan = state["fan"]
        if isinstance(cd, _tt("toric").NotQCartier):
            return cd.message
        for cone, m in zip(fan.maximal_cones, cd.vectors):
            if any(sum(x * y for x, y in zip(m, u)) != 1 for u in cone.generators):
                return f"Cartier data off the boundary on cone {list(cone.generators)}"
        return None

    return check


def _check_polytope(state):
    def check(poly):
        rays = state["fan"].all_rays
        if not poly.vertices:
            return "empty anticanonical polytope"
        for v in poly.vertices:
            if any(sum(x * y for x, y in zip(v, u)) < -1 for u in rays):
                return f"vertex {v} violates a facet inequality"
        return None

    return check


def complete_ops(seed, seconds):
    rng = random.Random(f"complete:{seed}")
    fans = max(1, round(COMPLETE_FANS_PER_S * seconds))
    ops = []
    for j in range(fans):
        n = 5 + j % 2
        a = 1 + (j // 2) % (n - 1)
        steps = tuple(
            (rng.randrange(1 << 30), tuple(rng.randint(1, 2) for _ in range(n)))
            for _ in range(COMPLETE_SUBDIVISIONS[n])
        )
        vectors = []
        while len(vectors) < 8:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                vectors.append(v)
        ops += _complete_fan_ops(f"f{j:03d}", (n, a, steps), tuple(vectors))
    return ops, {"fans": fans, "n": "alternating 5, 6", "a": "fan j: 1 + (j // 2) % (n - 1)",
                 "subdivisions": COMPLETE_SUBDIVISIONS, "coefficients": [1, 2],
                 "log_discrepancy_vectors": 8}


def _complete_fan_ops(prefix, params, vectors):
    """refine, then the five checks on the refined fan, which `state` carries
    from one op to the next."""
    lattice, toric, polytope = _tt("lattice"), _tt("toric"), _tt("polytope")
    state = {}

    def refine():
        state["fan"] = _refine(*params)
        return state["fan"]

    def boundary():
        return toric.boundary_divisor(state["fan"])

    def discrepancies():
        fan = state["fan"]
        return [toric.log_discrepancy(fan, boundary(), e) for e in vectors]

    def volume():
        return polytope.normalized_volume(state["polytope"])

    def anticanonical():
        state["polytope"] = polytope.divisor_polytope(state["fan"], boundary())
        return state["polytope"]

    def validate_check(violations):
        return None if not violations else f"fan_validate: {violations[0].detail}"

    def volume_check(vol):
        return None if vol > 0 else f"volume {vol} is not positive"

    def discrepancy_check(values):
        bad = [(e, a) for e, a in zip(vectors, values) if a != 0]
        return None if not bad else f"log discrepancy {bad[0][1]} at {bad[0][0]}, expected 0"

    return [
        _lib_op(f"{prefix}.refine", "refine", params, refine, lambda fan: None,
                _fan_canonical, _fan_props),
        _lib_op(f"{prefix}.fan_validate", "fan_validate", params,
                lambda: lattice.fan_validate(state["fan"]), validate_check,
                lambda vs: [(v.kind, v.detail) for v in vs]),
        _lib_op(f"{prefix}.cartier_data", "cartier_data", params,
                lambda: toric.cartier_data(state["fan"], boundary()), _check_cartier(state),
                lambda cd: (cd.vectors, cd.cartier_index)),
        _lib_op(f"{prefix}.divisor_polytope", "divisor_polytope", params, anticanonical,
                _check_polytope(state), lambda poly: poly.vertices),
        _lib_op(f"{prefix}.normalized_volume", "normalized_volume", params, volume,
                volume_check, lambda vol: (vol, len(state["polytope"].vertices))),
        _lib_op(f"{prefix}.log_discrepancy", "log_discrepancy", (params, vectors),
                discrepancies, discrepancy_check, lambda values: [Fraction(x) for x in values]),
    ]


WORKLOADS = {"acceptance": acceptance_ops, "stress": stress_ops, "complete": complete_ops}


def make_ops(workload, seed, seconds):
    """(ops, generator parameters) of one run."""
    return WORKLOADS[workload](seed, seconds)
