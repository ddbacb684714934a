"""Batch verification suites and the independent oracles they check against.

Each suite replays an invariant family on seeded random instances and
aggregates violations instead of raising.  The oracles here deliberately
take different routes from the production code, all over integers: HNF via
literal elementary row operations (repeated subtraction), invariant factors
via gcds of minors, dual cones via (n-1)-subset kernel vectors from signed
cofactors, cone membership via Fourier-Motzkin elimination on gcd-reduced
integer rows, and the simplicial log-discrepancy formula via Cramer's rule
with one fraction per term.  Every determinant is the Leibniz formula; the
oracles share no code with `hnf`, the double description or the Bareiss
steps.
"""

import itertools
import math
import random
from fractions import Fraction

from .documents import random_tower
from .lattice import (
    Cone,
    Fan,
    LatticeError,
    _shown,
    check_count,
    check_samples,
    check_seed,
    det_int,
    dot,
    dual_cone,
    fan_validate,
    hnf,
    identity_matrix,
    is_unimodular,
    is_zero,
    mat_mul,
    orthant_fan,
    primitive,
    projective_fan,
    snf,
    unit_vector,
    vadd,
    vneg,
    vscale,
)
from .polytope import (
    ProjectiveDivisorData,
    divisor_polytope,
    normalized_volume,
    relative_degree_on_P,
    relative_volume_on_P,
)
from .toric import (
    CartierData,
    NotQCartier,
    ToricDivisor,
    canonical_divisor,
    cartier_data,
    character_divisor,
    log_discrepancy,
    pullback_divisor,
    star_subdivision,
)
from .tower import (
    CheckOutcome,
    CurveGermData,
    NodeMove,
    ProductMove,
    base_change_to_curve,
    build_model,
    lc_place_transfer_check,
    node_chart_dual_violations,
    torus_splitting_check,
)

SUITES = ("kernel", "toric", "tower", "lc", "basechange", "volume", "all")
LC_SAMPLES_PER_TOWER = 50


# ---------------------------------------------------------------------------
# oracles


def is_row_hnf(h):
    """The row-HNF predicate: upper echelon, positive pivots, entries above
    each pivot reduced into [0, pivot)."""
    nr = len(h)
    nc = len(h[0]) if nr else 0
    last_pivot = -1
    seen_zero_row = False
    for i in range(nr):
        nz = [j for j in range(nc) if h[i][j] != 0]
        if not nz:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False
        p = nz[0]
        if p <= last_pivot or h[i][p] <= 0:
            return False
        last_pivot = p
        for k in range(i):
            if not 0 <= h[k][p] < h[i][p]:
                return False
        for k in range(i + 1, nr):
            if h[k][p] != 0:
                return False
    return True


def hnf_elementary_oracle(m):
    """HNF by literal elementary row operations only: swaps, negations and
    additions of one row to another (Euclid by repeated subtraction)."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0

    def add_row(i, j, sign):
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]

    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            for i in nz:
                if i != i0:
                    sign = -1 if rows[i][c] * rows[i0][c] > 0 else 1
                    while rows[i][c] != 0 and abs(rows[i][c] + sign * rows[i0][c]) < abs(rows[i][c]):
                        add_row(i, i0, sign)
        nz = [i for i in range(r, nr) if rows[i][c] != 0]
        if not nz:
            continue
        if nz[0] != r:
            rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            while rows[i][c] < 0:
                add_row(i, r, 1)
            while rows[i][c] >= rows[r][c]:
                add_row(i, r, -1)
        r += 1
    return tuple(tuple(row) for row in rows)


def _leibniz_det(m):
    """The Leibniz formula: the sum over permutations s of sign(s) times
    prod_i m[i][s(i)], the sign from the count of inversions."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1
        for row, j in zip(m, perm):
            term *= row[j]
        total += term
    return total


def invariant_factors_minor_oracle(m):
    """Invariant factors from gcds of k x k minors."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                g = math.gcd(g, _leibniz_det([[m[i][j] for j in cols] for i in rows]))
        if g == 0:
            factors.append(0)
        else:
            factors.append(g // prev)
            prev = g
    return tuple(factors)


def dual_cone_facet_oracle(generators, n):
    """Extreme rays of {m : <m,v> >= 0} by (n-1)-subset kernel enumeration.

    Only valid for full-dimensional pointed input cones (the dual is then
    pointed and full-dimensional).  A kernel vector of a rank-(n-1) subset
    that evaluates >= 0 on every generator supports a facet, hence is an
    extreme ray of the dual; all extreme rays arise this way.  The kernel
    vector is the signed cofactors w_j = (-1)^j det(subset without column j),
    zero exactly when the subset has rank below n-1.
    """
    candidates = set()
    for subset in itertools.combinations(generators, n - 1):
        w = tuple(
            (-1) ** j * _leibniz_det([g[:j] + g[j + 1:] for g in subset]) for j in range(n)
        )
        if not any(w):
            continue
        for cand in (w, vneg(w)):
            if all(dot(cand, g) >= 0 for g in generators):
                candidates.add(primitive(cand))
    return tuple(sorted(candidates))


def in_cone_fm(generators, v):
    """Membership of v in cone(generators) by Fourier-Motzkin elimination.

    Feasibility of {x >= 0 : sum x_i g_i = v}, eliminating one multiplier at
    a time over integer rows, each divided by its gcd; no linear programming
    involved.
    """
    k = len(generators)
    n = len(v)
    # constraints: coeffs over x_1..x_k plus constant, meaning sum + const >= 0
    cons = [tuple(int(j == i) for j in range(k)) + (0,) for i in range(k)]
    for row in range(n):
        eq = tuple(g[row] for g in generators) + (-v[row],)
        cons += [eq, vneg(eq)]
    for var in range(k):
        cons = list(dict.fromkeys(primitive(c) for c in cons if any(c)))
        pos = [c for c in cons if c[var] > 0]
        neg = [c for c in cons if c[var] < 0]
        cons = [c for c in cons if c[var] == 0]
        for cp in pos:
            for cn in neg:
                cons.append(tuple(a * (-cn[var]) + b * cp[var] for a, b in zip(cp, cn)))
    return all(c[-1] >= 0 for c in cons)


def simplicial_log_discrepancy_oracle(rays, boundary_coeffs, e):
    """Sum alpha_i (1 - b_i) with e = sum alpha_i u_i solved by Cramer's rule
    over integer determinants."""
    n = len(e)
    a = [[rays[j][i] for j in range(n)] for i in range(n)]
    d = _leibniz_det(a)
    if d == 0:
        raise LatticeError("rays are not simplicial")
    total = Fraction(0)
    for j in range(n):
        num = _leibniz_det([row[:j] + [x] + row[j + 1:] for row, x in zip(a, e)])
        total += Fraction(num, d) * (1 - Fraction(boundary_coeffs[j]))
    return total


# ---------------------------------------------------------------------------
# random instance helpers


def _random_pointed_cone(rng, n, max_entry=5, max_gens=None):
    while True:
        k = rng.randint(2, max_gens or n + 2)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randint(-max_entry, max_entry) for _ in range(n))
            if not is_zero(v):
                gens.append(v)
        # generated_by's first pass alone: a draw that holds a line needs no second
        cone = Cone(n, sorted({primitive(v) for v in gens})).pointed_form()
        if cone is not None:
            return cone


def _random_simplicial_cone(rng, n):
    while True:
        gens = []
        while len(gens) < n:
            v = tuple(rng.randint(0, 4) for _ in range(n))
            if not is_zero(v):
                gens.append(primitive(v))
        if det_int(tuple(gens)) != 0:
            # n independent primitive rays are distinct and extreme: in lex order, the canonical
            # n-cone, built with no DD, so its first Cartier solve takes the Hermite route
            return Cone(n, tuple(sorted(gens)))


def random_towers(count, seed):
    """The seeded tower family of the tower and lc suites: p in 1..3, d in 1..5, exponents in -3..3."""
    check_count(count, "count")
    check_seed(seed)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.randint(1, 3)
        d = rng.randint(1, 5)
        out.append(random_tower(p, d, 3, rng.randrange(2**32)))
    return out


# ---------------------------------------------------------------------------
# suites


def suite_kernel(seed, samples=200):
    """HNF against the elementary-operation oracle (all 2x2 with entries in
    [-3,3], plus random shapes), SNF against minor gcds, dual-cone involution
    and the facet-enumeration oracle, cone membership against Fourier-Motzkin."""
    check_samples(samples)
    out = CheckOutcome()
    span = range(-3, 4)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    m = ((a, b), (c, d))
                    h, u = hnf(m)
                    expected = hnf_elementary_oracle(m)
                    if h == expected and is_row_hnf(h) and is_unimodular(u) and mat_mul(u, m) == h:
                        out.check(True)  # 2,401 checks: the detail is formatted only on a failure
                    else:
                        out.check(False, "hnf", f"HNF mismatch on {m}: {h} vs oracle {expected}")
    rng = random.Random(seed)
    for _ in range(samples):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(nc)) for _ in range(nr))
        h, u = hnf(m)
        if not (is_unimodular(u) and mat_mul(u, m) == h and is_row_hnf(h)):
            out.check(False, "hnf", f"HNF certificate failed on {m}")
            continue
        s, us, vs = snf(m)
        diag = tuple(s[i][i] for i in range(min(nr, nc)))
        out.check(is_unimodular(us) and is_unimodular(vs) and mat_mul(mat_mul(us, m), vs) == s
                  and diag == invariant_factors_minor_oracle(m), "snf", f"SNF mismatch on {m}")
    for _ in range(samples):
        n = rng.randint(2, 4)
        cone = _random_pointed_cone(rng, n)
        if dual_cone(dual_cone(cone)).generators != cone.generators:
            out.check(False, "dual-involution", f"dual dual differs on {cone.generators}")
            continue
        out.check(cone.dim() != n or tuple(sorted(dual_cone_facet_oracle(cone.generators, n)))
                  == dual_cone(cone).generators, "dual-oracle", f"facet oracle differs on {cone.generators}")
    for _ in range(samples):
        n = rng.randint(2, 3)
        cone = _random_pointed_cone(rng, n, max_entry=3, max_gens=n + 1)
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        out.check(cone.contains(v) == in_cone_fm(cone.generators, v),
                  "contains", f"membership mismatch: {v} in {cone.generators}")
    # primitive(k*v) = primitive(v)
    for _ in range(samples):
        n = rng.randint(1, 4)
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if is_zero(v):
            continue
        k = rng.randint(1, 9)
        out.check(primitive(vscale(k, v)) == primitive(v),
                  "primitive", f"primitive({k}*{v}) != primitive({v})")
    return out


def suite_toric(seed, samples=60):
    """Log discrepancies against the Cramer-solved simplicial formula and
    star-subdivision pullback compatibility; divisor homomorphism; pullback
    functoriality; the canonical divisor Cartier with index 1."""
    check_samples(samples)
    out = CheckOutcome()
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(2, 3)
        cone = _random_simplicial_cone(rng, n)
        fan = Fan(n, (cone,))
        coeffs = {r: Fraction(rng.choice((0, 1, 2)), 2) for r in fan.all_rays}
        bdiv = ToricDivisor(fan, coeffs)
        lam = [rng.randint(0, 4) for _ in cone.generators]
        e = (0,) * n
        for l, g in zip(lam, cone.generators):
            e = vadd(e, vscale(l, g))
        if is_zero(e):
            out.skip("zero valuation vector (every lambda is 0)", cone=list(cone.generators))
            continue
        try:
            a = log_discrepancy(fan, bdiv, e)
            ep = primitive(e)
            expected = simplicial_log_discrepancy_oracle(
                cone.generators, [coeffs[r] for r in cone.generators], ep
            )
            if a != expected:
                out.check(False, "simplicial", f"a={a} but formula gives {expected}", cone=list(cone.generators))
                continue
            # star subdivision at an interior vector, crepant boundary transported
            centre = primitive(tuple(sum(g[i] for g in cone.generators) for i in range(n)))
            refined = star_subdivision(fan, centre)
            kb = canonical_divisor(fan) + bdiv
            refined_b = pullback_divisor(identity_matrix(n), refined, fan, kb) - canonical_divisor(refined)
            a_refined = log_discrepancy(refined, refined_b, e)
        except NotQCartier as exc:  # every divisor on a simplicial fan is Q-Cartier: only a wrong engine gets here
            out.check(False, "q-cartier", str(exc), cone=list(cone.generators))
            continue
        out.check(a_refined == a, "subdivision", "log discrepancy changed under "
                  "star subdivision", cone=list(cone.generators), vector=list(e))
    # character divisor is a homomorphism
    fan = orthant_fan(3)
    for _ in range(samples):
        l = tuple(rng.randint(-4, 4) for _ in range(3))
        m = tuple(rng.randint(-4, 4) for _ in range(3))
        out.check(character_divisor(fan, vadd(l, m)) == character_divisor(fan, l) + character_divisor(fan, m),
                  "character", f"Div({l}+{m}) != Div({l}) + Div({m})")
    # pullback functoriality on P^1 multiplication maps
    p1 = projective_fan(1)
    d0 = ToricDivisor(p1, {(1,): 1})
    for _ in range(samples):
        j, k = rng.randint(1, 4), rng.randint(1, 4)
        step = pullback_divisor(((k,),), p1, p1, pullback_divisor(((j,),), p1, p1, d0))
        composite = pullback_divisor(((j * k,),), p1, p1, d0)
        out.check(step == composite, "functoriality", f"pullback by {j} then {k} differs from {j*k}")
    # K is Cartier with index 1 on these smooth fans
    for f in (orthant_fan(2), projective_fan(2), projective_fan(3)):
        cd = cartier_data(f, canonical_divisor(f))
        out.check(isinstance(cd, CartierData) and cd.cartier_index == 1, "lc-couple",
                  f"K not Cartier with q=1 on {f}")
    return out


def suite_tower(seed, samples=200):
    """Construction soundness on seeded random towers: fan_validate at every
    level, torus splitting, K Cartier with index 1, node ray bounds, and the
    sigma-tilde dual-cone cross-check.  Every level is Gorenstein, so K is
    Cartier of index 1 (our argument, not the paper's): level 1 is smooth, a
    product level is the level below times A^1, a node level is the
    hypersurface a a' = lambda in (the chart below) x A^2, and a hypersurface
    in a Gorenstein toric variety is Gorenstein.

    Towers that start alike share level fans (see build_model), so the fan
    and K checks run once per distinct fan, kept by its id with the fan (so
    no other fan takes the id), and every tower with it reports the result."""
    check_samples(samples)
    out = CheckOutcome()
    seen = {}  # id(fan) -> (fan, its fan_validate details, whether K is Cartier with q=1)
    for idx, spec in enumerate(random_towers(samples, seed)):
        model = build_model(spec)
        before = len(out.violations)
        for li, level in enumerate(model.levels):
            fan = level.fan
            key = id(fan)
            if key not in seen:
                details = [v["detail"] for v in fan_validate(fan)]
                cd = cartier_data(fan, canonical_divisor(fan))
                seen[key] = fan, details, isinstance(cd, CartierData) and cd.cartier_index == 1
            _, details, gorenstein = seen[key]
            for detail in details:
                out.add_violation("fan", f"tower {idx} level {li + 1}: {detail}", tower=idx)
            if not gorenstein:
                out.add_violation("cartier", f"tower {idx} level {li + 1}: K not Cartier with q=1", tower=idx)
        for li, move in enumerate(model.spec.moves):
            fan = model.levels[li + 1].fan
            prev_dim = model.levels[li].fan.ambient_dim
            if isinstance(move, NodeMove):
                m = move.lattice_exponents()
                for ray in fan.all_rays:
                    if not 0 <= ray[-1] <= dot(m, ray[:prev_dim]):
                        out.add_violation(
                            "node-ray",
                            f"tower {idx} level {li + 2}: ray {list(ray)} outside 0 <= t <= <m,v>",
                            tower=idx,
                        )
            else:
                new_coord = unit_vector(prev_dim + 1, prev_dim)
                for ray in fan.all_rays:
                    if ray[-1] != 0 and ray != new_coord:
                        out.add_violation(
                            "product-ray",
                            f"tower {idx} level {li + 2}: unexpected new ray {list(ray)}",
                            tower=idx,
                        )
        for v in torus_splitting_check(model).violations + node_chart_dual_violations(model).violations:
            out.add_violation(**v, tower=idx)
        out.check(len(out.violations) == before)
    return out


def suite_lc(seed, samples=200):
    """lc-place transfer on the seeded tower family: every level-d ray plus
    LC_SAMPLES_PER_TOWER sampled interior vectors must lie in |Sigma_P|."""
    check_samples(samples)
    out = CheckOutcome()
    rng = random.Random(seed)
    for idx, spec in enumerate(random_towers(samples, seed)):
        res = lc_place_transfer_check(build_model(spec), samples=LC_SAMPLES_PER_TOWER, seed=rng.randrange(2**32))
        out.merge(res, tower=idx)
    return out


def suite_basechange(seed, samples=100):
    """Base-change transform: node exponents recomputed independently,
    p=1 c=(1) identity, off-boundary germs force zero exponents, and
    linearity in the vanishing orders."""
    check_samples(samples)
    out = CheckOutcome()
    rng = random.Random(seed)
    for _ in range(samples):
        p = rng.randint(1, 3)
        d = rng.randint(1, 5)
        spec = random_tower(p, d, 3, rng.randrange(2**32))
        on_boundary = rng.randrange(2) == 0
        orders = tuple(rng.randint(0, 3) for _ in range(p)) if on_boundary else (0,) * p
        germ = CurveGermData(orders=orders, on_boundary=on_boundary)
        changed = base_change_to_curve(spec, germ)
        ok = changed.base_dim == 1 and len(changed.moves) == len(spec.moves)
        for mv, new in zip(spec.moves, changed.moves):
            if isinstance(mv, ProductMove):
                ok = ok and isinstance(new, ProductMove)
                continue
            expected = sum(c * nu for c, nu in zip(orders, mv.t_exponents))
            ok = ok and new.alpha_exponents == mv.alpha_exponents
            ok = ok and new.t_exponents == (expected,)
            if not on_boundary:
                ok = ok and new.t_exponents == (0,)
        if not ok:
            out.check(False, "basechange", f"transform mismatch for orders {orders}")
            continue
        # linearity in the orders
        if on_boundary:
            orders2 = tuple(rng.randint(0, 3) for _ in range(p))
            changed2 = base_change_to_curve(spec, CurveGermData(orders2, True))
            both = base_change_to_curve(
                spec, CurveGermData(tuple(a + b for a, b in zip(orders, orders2)), True)
            )
            ok = all(m3.t_exponents[0] == m1.t_exponents[0] + m2.t_exponents[0]
                     for m1, m2, m3 in zip(changed.moves, changed2.moves, both.moves)
                     if isinstance(m1, NodeMove))
        out.check(ok, "basechange-linearity", "transform not linear in the orders")
    # p=1, c=(1) identity
    for _ in range(20):
        spec = random_tower(1, rng.randint(1, 5), 3, rng.randrange(2**32))
        out.check(base_change_to_curve(spec, CurveGermData((1,), True)) == spec,
                  "basechange-identity", "p=1, c=(1) transform is not the identity")
    return out


def suite_volume(seed=None, samples=None):
    """Exact degree/volume formulas on projective fibers and polytope volumes
    of k*H on P^n; additivity, homogeneity, and the monotonicity audit.
    Every check is fixed: `seed` and `samples` are accepted and ignored."""
    out = CheckOutcome()
    for n in range(1, 5):
        fan = projective_fan(n)
        ray = unit_vector(n, 0)
        for k in range(1, 4):
            poly = divisor_polytope(fan, ToricDivisor(fan, {ray: k}))
            out.check(normalized_volume(poly) == Fraction(k) ** n,
                      "volume", f"vol(P_{{{k}H}}) on P^{n} != {k}^{n}")
    for n in range(1, 5):
        for a in range(1, 4):
            for deg in range(0, 4):
                data = ProjectiveDivisorData(
                    fiber_dim=n, hyperplane_coefficients=(Fraction(deg),), polarization=a
                )
                if relative_degree_on_P(data) != Fraction(deg) * a ** (n - 1):
                    out.check(False, "degree", f"deg on P^{n} with a={a}, d={deg} wrong")
                    continue
                out.check(relative_volume_on_P(data) == Fraction(deg) ** n,
                          "volume", f"vol on P^{n} with d={deg} wrong")
    # additivity and homogeneity
    d1 = ProjectiveDivisorData(2, (1, 2), polarization=3)
    d2 = ProjectiveDivisorData(2, (Fraction(1, 2),), polarization=3)
    dsum = ProjectiveDivisorData(2, (1, 2, Fraction(1, 2)), polarization=3)
    out.check(relative_degree_on_P(dsum) == relative_degree_on_P(d1) + relative_degree_on_P(d2),
              "degree-additive", "relative degree not additive in D")
    # monotonicity audit: vol of (A + H + G)|_fiber non-decreasing per coefficient
    monotone = True
    for base in itertools.product(range(0, 3), repeat=3):
        v0 = relative_volume_on_P(ProjectiveDivisorData(3, tuple(map(Fraction, base))))
        for axis in range(3):
            bumped = list(base)
            bumped[axis] += 1
            v1 = relative_volume_on_P(ProjectiveDivisorData(3, tuple(map(Fraction, bumped))))
            if v1 < v0:
                monotone = False
    out.check(monotone, "monotonicity", "relative volume decreased in a coefficient")
    return out


def run_suite(name, seed, samples=None):
    """Run one named invariant suite; `all` runs every suite in SUITES order,
    one after another, and merges each outcome with its name.  A suite runs
    its own default sample count unless `samples` (0 to MAX_SAMPLES) is
    given.  `seed` is an int of any sign."""
    check_seed(seed)
    if samples is not None:
        check_samples(samples)
    # looked up per call, so a wrapped or patched suite_* function is the one run
    suites = {s: globals()[f"suite_{s}"] for s in SUITES if s != "all"}
    kwargs = {} if samples is None else {"samples": samples}
    if name == "all":
        total = CheckOutcome()
        for sub, suite in suites.items():
            total.merge(suite(seed, **kwargs), suite=sub)
        return total
    if name in SUITES:  # a tuple: an unhashable name is unknown too
        return suites[name](seed, **kwargs)
    raise LatticeError(f"unknown suite {_shown(name)}; choose from {', '.join(SUITES)}")
