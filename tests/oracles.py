"""Test-only reference implementations of the face and polytope kernels.

These are the geometric versions that the bitmask kernels in
`torictower.lattice`, `torictower.toric` and `torictower.polytope`
replaced: faces as frozensets of generator indices built from `dot` tests,
face membership through `Cone.contains`, maximal regular faces pruned by
pairwise geometric containment, polytope vertices from every n-subset of
the facet inequalities, a pulling triangulation that runs one double
description pass per face, and a star subdivision that spans every face
missing the centre with it and prunes the result geometrically, and Cartier
data from Gauss-Jordan elimination over Fraction rows with a separate Smith
normal form for the index, that Smith form by the textbook pivoting
elimination, and the lc-place transfer check evaluated per
vector as the log discrepancy -<m_sigma, e> on both fans, fan
validation that re-canonicalises every cone and intersects every pair of
maximal cones by double description, the local-model report built
from `Cone.faces` with one membership test per face, the facet masks of a
level cone from a double description pass on its rays, a canonical cone from
two double description passes (halfspaces, then their extreme rays), a
pullback that finds the target cone of each source ray by its own scan, the
double description without the adjacency pre-filter, and a normalized
volume from one double description pass on the points and a full
determinant per simplex.  They are slow and independent of the
production code, so the property tests compare the two.  The `Fraction`
versions of the `torictower.verify` oracles (minor gcds, dual-cone facets,
Fourier-Motzkin membership and the simplicial log-discrepancy formula, over
`det_fraction`) live here too, as references for its integer oracles, and
so do the generator-expression definitions of the lattice vector helpers,
the references for their builtin forms, and the lc sampler that builds and
primitivizes every sample vector.  The mask walks that the face kernels
replaced are here as well: a fan's faces as the union of one walk per
maximal cone, and a regularity subfan from a walk of every non-regular face.
`unimodular` draws the changes of coordinates for the metamorphic tests,
and `torus_fan` builds the zero-cone fan that only tests use.  `rank_int`
and `is_strongly_convex` are the Hermite-form rank tests, the references for
pointedness by extreme rays and for `Cone.dim` from the memoized equations.
"""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from torictower.lattice import (
    Cone,
    Fan,
    LatticeError,
    bit_indices,
    content,
    det_int,
    dot,
    halfspace_intersection,
    hnf,
    identity_matrix,
    intersect_cones,
    is_face_of,
    is_zero,
    kernel_basis,
    mat_vec,
    maximal_masks,
    primitive,
    unit_vector,
    vneg,
    vscale,
)
from torictower.polytope import LatticePolytope, UnboundedPolytopeError
from torictower.toric import (
    CartierData,
    NotQCartier,
    ToricDivisor,
    boundary_divisor,
    canonical_divisor,
    cartier_data,
)
from torictower.tower import (
    CheckOutcome,
    local_model_at,
    projective_model,
)


def dot_oracle(a, b):
    if len(a) != len(b):
        raise LatticeError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vadd_oracle(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub_oracle(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg_oracle(a):
    return tuple(-x for x in a)


def vscale_oracle(k, a):
    return tuple(k * x for x in a)


def is_zero_oracle(a):
    return all(x == 0 for x in a)


def content_oracle(a):
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
    return g


def unit_vector_oracle(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def torus_fan(n):
    """Fan of the n-torus: the zero cone only."""
    return Fan(n, (Cone(n, ()),))


def generated_by_oracle(vectors, ambient_dim=None):
    """`Cone.generated_by` by two double description passes: the halfspaces
    of the distinct primitive nonzero vectors, then the extreme rays and a
    +/- lineality basis of those halfspaces.  The cone keeps the first
    pass's halfspaces."""
    vectors = [tuple(v) for v in vectors]
    n = len(vectors[0]) if ambient_dim is None else ambient_dim
    prim = sorted({primitive(v) for v in vectors if not is_zero(v)})
    normals, equations = halfspace_intersection(prim, n)
    rows = list(normals) + [r for e in equations for r in (tuple(e), vneg(e))]
    rays, lineality = halfspace_intersection(rows, n)
    gens = list(rays) + [primitive(r) for l in lineality for r in (l, vneg(l))]
    cone = Cone(n, tuple(sorted(gens)))
    cone._halfspaces = (normals, equations)
    return cone


def pullback_divisor_oracle(lattice_map, source, target, divisor):
    """`pullback_divisor` that first checks every source cone against every
    target cone, then evaluates each source ray u on the Cartier data of the
    first target cone that contains map*u."""
    cd = cartier_data(target, divisor)
    if isinstance(cd, NotQCartier):
        raise cd
    for cone in source.maximal_cones:
        images = [mat_vec(lattice_map, g) for g in cone.generators]
        if not any(all(t.contains(v) for v in images) for t in target.maximal_cones):
            raise LatticeError(
                f"source cone {list(cone.generators)} does not map into any "
                "cone of the target fan"
            )
    coeffs = {}
    for u in source.all_rays:
        v = mat_vec(lattice_map, u)
        coeffs[u] = next(dot(m, v) for t, m in zip(target.maximal_cones, cd.vectors) if t.contains(v))
    return ToricDivisor(source, coeffs)


def faces_oracle(cone):
    """All faces of a canonical cone, in the order of `Cone.faces`."""
    normals, _ = cone.halfspaces()
    rays = cone.generators
    full = frozenset(range(len(rays)))
    seen = {full}
    queue = [full]
    while queue:
        cur = queue.pop()
        for nrm in normals:
            sub = frozenset(i for i in cur if dot(nrm, rays[i]) == 0)
            if sub not in seen:
                seen.add(sub)
                queue.append(sub)
    out = []
    for subset in sorted(seen, key=lambda s: (len(s), tuple(sorted(s)))):
        out.append(Cone(cone.ambient_dim, tuple(sorted(rays[i] for i in subset))))
    return out


def facet_masks_oracle(fan, k):
    """The facets of maximal cone k of `fan` in the order of `Fan.facet_masks`:
    per facet normal of one double description pass, the fan rays of the
    cone on its hyperplane."""
    cone = fan.maximal_cones[k]
    return tuple(sorted(
        sum(1 << i for i, r in enumerate(fan.all_rays) if r in cone.generators and dot(nrm, r) == 0)
        for nrm in halfspace_intersection(cone.generators, cone.ambient_dim)[0]
    ))


def walk_faces_oracle(top, facets, leaf=None):
    """Face masks reached from `top` (included) by intersecting with the
    facet masks `facets`, not descending below a face where `leaf` holds."""
    seen = {top}
    stack = [top]
    while stack:
        cur = stack.pop()
        if leaf is not None and leaf(cur):
            continue
        for f in facets:
            sub = cur & f
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    return seen


def face_masks_oracle(fan):
    """Every face of `fan` as a mask, the union of one walk per maximal cone."""
    _, tops = fan.ray_index()
    return set().union(*(walk_faces_oracle(top, fan.facet_masks(k)) for k, top in enumerate(tops)))


def remap(mask, rays, bit):
    """A mask over the index of `rays`, as a mask over the ray index `bit`."""
    return sum(bit[rays[i]] for i in bit_indices(mask))


def regularity_subfan_walk_oracle(fan, char):
    """The regularity subfan from a walk of each maximal cone's face lattice
    that stops at the first regular faces, with the facet rule of
    `regularity_subfan`."""
    char = tuple(char)
    rays = fan.all_rays
    bit, tops = fan.ray_index()
    regular = sum(b for u, b in bit.items() if dot(char, u) >= 0)

    def is_regular(mask):
        return mask & regular == mask

    found = {}  # regular face -> a maximal cone it is a face of
    for k, top in enumerate(tops):
        faces = [top] if is_regular(top) else walk_faces_oracle(top, fan.facet_masks(k), is_regular)
        for a in filter(is_regular, faces):
            found.setdefault(a, k)
    kept = {tuple(rays[i] for i in bit_indices(a)): a for a in maximal_masks(found)}

    def facets(sub, j):
        face = kept[sub.maximal_cones[j].generators]
        cuts = maximal_masks(face & f for f in fan.facet_masks(found[face]) if face & f != face)
        return (remap(f, rays, sub.ray_index()[0]) for f in cuts)

    return Fan(fan.ambient_dim, [Cone(fan.ambient_dim, gens) for gens in kept], facets)


def cones_equal_as_sets(a, b):
    """Set equality of two cones via mutual generator containment."""
    if a.ambient_dim != b.ambient_dim:
        return False
    return all(b.contains(g) for g in a.generators) and all(a.contains(g) for g in b.generators)


def is_face_of_oracle(small, big):
    """Whether `small` is a face of the canonical cone `big`, geometrically."""
    if small.ambient_dim != big.ambient_dim:
        return False
    if not all(big.contains(g) for g in small.generators):
        return False
    normals, _ = big.halfspaces()
    tight = [nrm for nrm in normals if all(dot(nrm, g) == 0 for g in small.generators)]
    face_rays = tuple(
        sorted(r for r in big.generators if all(dot(nrm, r) == 0 for nrm in tight))
    )
    return face_rays == tuple(sorted(small.generators))


def regularity_subfan_oracle(fan, char):
    """Every face with <m, u> >= 0 on its rays, pruned to the maximal ones
    by geometric containment."""
    char = tuple(char)
    if len(char) != fan.ambient_dim:
        raise LatticeError("character dimension does not match fan")
    survivors = []
    for cone in fan.maximal_cones:
        if all(dot(char, u) >= 0 for u in cone.generators):
            survivors.append(cone)
            continue
        for face in faces_oracle(cone):
            if all(dot(char, u) >= 0 for u in face.generators):
                survivors.append(face)
    survivors = list(dict.fromkeys(survivors))
    keep = [
        c
        for c in survivors
        if not any(
            other != c and all(other.contains(g) for g in c.generators)
            for other in survivors
        )
    ]
    return Fan(fan.ambient_dim, keep)


def star_subdivision_oracle(fan, v):
    """cone(tau, v) for every face tau missing v of each maximal cone
    containing v, canonicalised by double description and pruned to the
    maximal ones by geometric containment."""
    v = primitive(tuple(v))
    if fan.cone_index(v) is None:
        raise LatticeError("subdivision centre lies outside the fan support")
    cones = []
    for cone in fan.maximal_cones:
        if not cone.contains(v):
            cones.append(cone)
            continue
        for face in faces_oracle(cone):
            if not face.contains(v):
                cones.append(generated_by_oracle(face.generators + (v,), fan.ambient_dim))
    cones = list(dict.fromkeys(cones))
    keep = [
        c
        for c in cones
        if not any(
            other is not c
            and all(other.contains(g) for g in c.generators)
            and not all(c.contains(g) for g in other.generators)
            for other in cones
        )
    ]
    return Fan(fan.ambient_dim, keep)


def _violation(kind, detail):
    return {"kind": kind, "detail": detail}


def fan_validate_oracle(fan):
    """`fan_validate` with no certificate: strong convexity by the rank of
    the halfspaces, every cone re-canonicalised by `generated_by_oracle`,
    and every pair of maximal cones intersected by double
    description."""
    violations = []
    canonical = {}
    for c in fan.maximal_cones:
        ok = True
        seen = set()
        for g in c.generators:
            if is_zero(g):
                violations.append(_violation("non-primitive ray", f"zero generator in cone {list(c.generators)}"))
                ok = False
                continue
            if content(g) != 1:
                violations.append(_violation("non-primitive ray", f"ray {list(g)} has content {content(g)}"))
                ok = False
            if g in seen:
                violations.append(_violation("duplicate ray", f"ray {list(g)} listed twice in a cone"))
                ok = False
            seen.add(g)
        if ok and not is_strongly_convex(c):
            violations.append(_violation("not strongly convex", f"cone {list(c.generators)} contains a line"))
            ok = False
        if ok:
            canonical[c] = generated_by_oracle(c.generators, fan.ambient_dim)
    cones = [c for c in fan.maximal_cones if c in canonical]
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = canonical[cones[i]], canonical[cones[j]]
            inter = intersect_cones(a, b)
            if not (is_face_of(inter, a) and is_face_of(inter, b)):
                violations.append(
                    _violation(
                        "intersection not a face",
                        f"cones {list(cones[i].generators)} and {list(cones[j].generators)} "
                        f"meet in {list(inter.generators)} which is not a common face",
                    )
                )
    return violations


def solve_rational(rows, rhs):
    """One exact rational solution x of rows*x = rhs (free variables 0), or None."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if aug[i][-1] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][-1]
    return tuple(x)


def snf_oracle(m):
    """Smith normal form by the textbook elimination: move a smallest entry of
    the trailing block to the pivot, clear its row and column, and fix
    divisibility by adding a row.  Its entries can grow without bound (a
    6x5 matrix with entries below 50 never returns), so it runs only on the
    small inputs of the tests.

    Returns (S, U, V) with S = U*m*V diagonal, each diagonal entry
    non-negative and dividing the next, U and V unimodular.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    s = [list(row) for row in m]
    u = [list(row) for row in identity_matrix(nr)]
    v = [list(row) for row in identity_matrix(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # move a smallest-magnitude nonzero of the trailing block to (t, t)
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, q)
                    if s[i][t] != 0:  # remainder becomes the smaller pivot
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    col_op(j, t, q)
                    if s[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the trailing block by s[t][t]
        stained = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if s[i][j] % s[t][t] != 0:
                    row_op(t, i, -1)  # row_t += row_i
                    stained = True
                    break
            if stained:
                break
        if stained:
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        tuple(tuple(row) for row in s),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def _cone_cartier_index(rays, values):
    """Least positive q such that <m, u_i> = q*d_i has an integer solution m.

    Via the Smith normal form of the ray matrix: with S = U*A*V and c = U*d,
    solvability over Z of A*m = q*d amounts to q*c_i/s_i integral on the
    diagonal and q*c_i = 0 beyond the rank.
    """
    if not rays:
        return 1
    s, u, _ = snf_oracle(rays)
    k = len(rays)
    n = len(rays[0])
    q = 1
    for i in range(k):
        ci = sum(Fraction(u[i][j]) * values[j] for j in range(k))
        si = s[i][i] if i < min(k, n) else 0
        if si == 0:
            if ci != 0:
                return None  # inconsistent over Q as well
            continue
        q = math.lcm(q, (ci / si).denominator)
    return q


def cartier_data_oracle(fan, divisor):
    """Cartier data by rational Gauss-Jordan elimination per maximal cone,
    the index from a separate Smith normal form.  On lower-dimensional cones
    the vectors are a different particular solution from `cartier_data`'s."""
    vectors = []
    q = 1
    for cone in fan.maximal_cones:
        rays = cone.generators
        values = [divisor.coefficient(u) for u in rays]
        sol = solve_rational(rays, values)
        if sol is None:
            return NotQCartier(cone, f"not Q-Cartier on cone {list(cone.generators)}")
        for u, d in zip(rays, values):
            assert sum(c * x for c, x in zip(sol, u)) == d
        cone_q = _cone_cartier_index(rays, values)
        assert cone_q is not None
        q = math.lcm(q, cone_q)
        vectors.append(sol)
    return CartierData(fan, tuple(vectors), q)


def rank_int(m):
    """The rank of an integer matrix: the nonzero rows of its Hermite form."""
    if not m or not m[0]:
        return 0
    h, _ = hnf(m)
    return sum(1 for row in h if any(row))


def is_strongly_convex(cone):
    """Whether `cone` holds no line: its facet normals and equations have rank n."""
    normals, equations = cone.halfspaces()
    return rank_int(tuple(normals) + tuple(equations)) == cone.ambient_dim


def divisor_polytope_oracle(fan, divisor):
    """Vertices of P_D = {m : <m, u> >= -d_u}: the solution of every n-subset
    of the facet equations that satisfies all inequalities."""
    n = fan.ambient_dim
    rays = fan.all_rays
    rec_rays, rec_lin = halfspace_intersection(rays, n)
    if rec_rays or rec_lin:
        raise UnboundedPolytopeError("divisor not bounded above")
    rhs = {u: -divisor.coefficient(u) for u in rays}
    vertices = set()
    for subset in itertools.combinations(rays, n):
        if rank_int(subset) != n:
            continue
        point = solve_rational(subset, [rhs[u] for u in subset])
        if point is None:
            continue
        if all(sum(c * x for c, x in zip(u, point)) >= rhs[u] for u in rays):
            vertices.add(tuple(point))
    return LatticePolytope(ambient_dim=n, vertices=tuple(sorted(vertices)))


def _affine_rank(vertices):
    if len(vertices) <= 1:
        return 0
    v0 = vertices[0]
    rows = []
    for v in vertices[1:]:
        diff = [x - y for x, y in zip(v, v0)]
        den = math.lcm(*(f.denominator for f in map(Fraction, diff))) if diff else 1
        rows.append(tuple(int(Fraction(x) * den) for x in diff))
    rows = [r for r in rows if not is_zero(r)]
    return rank_int(tuple(rows)) if rows else 0


def _polytope_facets(vertices):
    """Vertex lists of the facets of conv(vertices), via the homogenization
    cone's supporting normals."""
    gens = []
    for v in vertices:
        hom = tuple(Fraction(x) for x in v) + (Fraction(1),)
        den = math.lcm(*(f.denominator for f in hom))
        gens.append(primitive(tuple(int(f * den) for f in hom)))
    normals, _equations = halfspace_intersection(gens, len(vertices[0]) + 1)
    facets = []
    seen = set()
    for a in normals:
        tight = tuple(
            v
            for v in vertices
            if sum(Fraction(c) * Fraction(x) for c, x in zip(a, tuple(v) + (1,))) == 0
        )
        if tight and tight not in seen:
            seen.add(tight)
            facets.append(list(tight))
    return facets


def _triangulate(vertices):
    """Pulling triangulation: simplices covering conv(vertices)."""
    r = _affine_rank(vertices)
    if len(vertices) == r + 1:
        return [list(vertices)]
    v0 = min(vertices)
    simplices = []
    for facet in _polytope_facets(vertices):
        if v0 in facet:
            continue
        for s in _triangulate(sorted(facet)):
            simplices.append(s + [v0])
    return simplices


def normalized_volume_oracle(polytope):
    """n! times the Euclidean volume: a pulling triangulation with one double
    description pass per face, and a rational determinant per simplex."""
    verts = polytope.vertices
    if not verts:
        return Fraction(0)
    if _affine_rank(verts) < polytope.ambient_dim:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate(sorted(verts)):
        v0 = simplex[0]
        rows = [[Fraction(x) - Fraction(y) for x, y in zip(v, v0)] for v in simplex[1:]]
        total += abs(det_fraction(rows))
    return total


def sample_primitive_vectors(fan, samples, rng):
    """Seeded primitive vectors in the fan support: per sample, a random
    maximal cone and a random non-negative integer combination (entries <= 10)
    of its rays, primitivized.  Yields None for degenerate (zero) draws."""
    cones = fan.maximal_cones
    for _ in range(samples):
        cone = cones[rng.randrange(len(cones))]
        if not cone.generators:
            yield None
            continue
        v = (0,) * fan.ambient_dim
        for u in cone.generators:
            c = rng.randint(0, 10)
            if c:
                v = tuple(x + c * y for x, y in zip(v, u))
        yield None if is_zero(v) else primitive(v)


def lc_place_transfer_check_oracle(model, samples, seed):
    """Every ray and seeded sample of the level-d fan evaluated as a log
    discrepancy on (V_d, C_d) and on (P, G): the Cartier data of K + boundary
    at the first maximal cone that contains the vector, found by
    `Cone.contains`.  Counts, skips and violations as `lc_place_transfer_check`."""
    spec = model.spec
    out = CheckOutcome()
    fan_v = model.levels[-1].fan
    fan_p = projective_model(spec)
    cd_v = cartier_data(fan_v, canonical_divisor(fan_v) + boundary_divisor(fan_v))
    cd_p = cartier_data(fan_p, canonical_divisor(fan_p) + boundary_divisor(fan_p))
    if isinstance(cd_v, NotQCartier):
        out.add_violation("cartier", f"K+C not Q-Cartier on V_d: {cd_v.message}")
        return out
    if isinstance(cd_p, NotQCartier):
        out.add_violation("cartier", f"K+G not Q-Cartier on P: {cd_p.message}")
        return out

    def log_discrepancy(cd, e):
        val = cd.evaluate(e)
        return None if val is None else -val

    rng = random.Random(seed)
    vectors = [("ray", r) for r in fan_v.all_rays]
    vectors += [("sample", v) for v in sample_primitive_vectors(fan_v, samples, rng)]
    for origin, e in vectors:
        out.checked += 1
        if e is None:
            out.add_skip("degenerate sample (zero vector)", origin=origin)
            continue
        a_v = log_discrepancy(cd_v, e)
        if a_v is None:
            out.add_skip("no centre on V_d", vector=list(e), origin=origin)
            continue
        a_p = log_discrepancy(cd_p, e)
        if a_p is None:
            out.add_violation(
                "no-centre-on-P",
                "vector lies in |Sigma_V| but not in |Sigma_P|",
                vector=list(e),
                origin=origin,
            )
            continue
        if a_v != 0 or a_p != 0:
            out.add_violation(
                "lc-transfer",
                f"log discrepancies a_V={a_v}, a_P={a_p} differ from 0",
                vector=list(e),
                origin=origin,
            )
        else:
            out.passed += 1
    return out


def local_model_report_oracle(model, levels):
    """`data.levels` of the `local-model` report by the route the fan's ray
    index replaced: every face from `Cone.faces`, deduplicated by generators,
    sorted by (size, generators) and classified by `local_model_at`, which
    also re-proves each face's membership in the level fan."""
    out = []
    for level in levels:
        faces = {}
        for top in model.levels[level - 1].fan.maximal_cones:
            for face in top.faces():
                faces.setdefault(face.generators, face)
        entries = []
        for gens in sorted(faces, key=lambda g: (len(g), g)):
            kind = local_model_at(model, level, faces[gens])
            entry = {"rays": [[str(x) for x in g] for g in gens], "kind": kind}
            if kind == "node":
                move = model.spec.moves[level - 2]
                entry["node_character"] = {
                    "alpha_exponents": [str(x) for x in move.alpha_exponents],
                    "t_exponents": [str(x) for x in move.t_exponents],
                }
            entries.append(entry)
        out.append({"level": str(level), "cones": entries})
    return out


def normalized_volume_per_simplex_oracle(polytope):
    """n! times the Euclidean volume, exact.  Empty or lower-dimensional
    polytopes have volume 0.

    One double description pass on the homogenized points (w, den) gives the
    facet normals; a pulling triangulation then runs on point-facet
    incidence bitmasks alone.  The facets of a face G are the inclusion-
    maximal proper nonempty G & F over the facet masks F, the apex is G's
    lowest point, and a d-face with d + 1 points is a simplex.  With the
    apexes collected above it, it adds |det(rows)| / prod(den).
    """
    n = polytope.ambient_dim
    rows = []
    for v in sorted(polytope.vertices):
        v = [Fraction(x) for x in v]
        den = math.lcm(*(x.denominator for x in v))
        rows.append(tuple(int(x * den) for x in v) + (den,))
    if not rows:
        return Fraction(0)
    normals, equations = halfspace_intersection_oracle(rows, n + 1)
    if equations:
        return Fraction(0)
    facets = [sum(1 << i for i, r in enumerate(rows) if dot(a, r) == 0) for a in normals]
    total = Fraction(0)
    stack = [((1 << len(rows)) - 1, n, 0)]  # (face, its dimension, apexes above it)
    while stack:
        face, dim, apexes = stack.pop()
        if face.bit_count() == dim + 1:
            simplex = [rows[i] for i in bit_indices(face | apexes)]
            total += Fraction(abs(det_int(simplex)), math.prod(r[-1] for r in simplex))
            continue
        apex = face & -face
        maximal = []
        for sub in sorted({face & f for f in facets} - {0, face}, key=int.bit_count, reverse=True):
            if all(sub & m != sub for m in maximal):
                maximal.append(sub)
                if not sub & apex:
                    stack.append((sub, dim - 1, apexes | apex))
    return total


def halfspace_intersection_oracle(constraints, n):
    """V-description of the cone {x in R^n : <a, x> >= 0 for every a}.

    Returns (rays, lineality): the extreme rays of the pointed part (primitive,
    lex-sorted) and an HNF basis of the lineality space.  Double description
    with incremental lineality reduction; the adjacency test is the standard
    combinatorial one, valid because the ray list stays minimal at every step.
    Deterministic: first-index pivoting, lexicographically sorted output.
    Every (pos, neg) pair runs the combinatorial scan: no adjacency
    pre-filter.
    """
    lineality = [unit_vector(n, i) for i in range(n)]
    rays = []  # (vector, tight-bitmask over processed constraints)
    processed = []
    for a in constraints:
        a = tuple(a)
        if len(a) != n:
            raise LatticeError(f"constraint has dimension {len(a)}, expected {n}")
        if is_zero(a):
            continue
        bit = 1 << len(processed)
        lvals = [dot(a, l) for l in lineality]
        j0 = next((j for j, s in enumerate(lvals) if s != 0), None)
        if j0 is not None:
            l0, s0 = lineality[j0], lvals[j0]
            if s0 < 0:
                l0, s0 = vneg(l0), -s0
            new_lin = []
            for j, (l, s) in enumerate(zip(lineality, lvals)):
                if j != j0:
                    new_lin.append(primitive(vsub_oracle(vscale(s0, l), vscale(s, l0))))
            full = bit - 1  # tight on every previously processed constraint
            new_rays = []
            for r, mask in rays:
                rv = dot(a, r)
                r2 = primitive(vsub_oracle(vscale(s0, r), vscale(rv, l0)))
                new_rays.append((r2, mask | bit))
            new_rays.append((l0, full))
            rays = new_rays
            lineality = new_lin
        else:
            pos, zero, neg = [], [], []
            for r, mask in rays:
                rv = dot(a, r)
                if rv > 0:
                    pos.append((r, mask, rv))
                elif rv < 0:
                    neg.append((r, mask, rv))
                else:
                    zero.append((r, mask | bit))
            if neg:
                combos = {}
                for p, mp, pv in pos:
                    for q, mq, qv in neg:
                        t = mp & mq
                        blocked = any(
                            (t & ~mr) == 0 for r, mr in rays if r is not p and r is not q
                        )
                        if blocked:
                            continue
                        w = vsub_oracle(vscale(pv, q), vscale(qv, p))
                        if is_zero(w):
                            continue
                        # exact: <c, w> = pv<c, q> - qv<c, p>, both terms >= 0
                        combos.setdefault(primitive(w), t | bit)
                rays = [(r, m) for r, m, _ in pos] + zero + sorted(combos.items())
            else:
                rays = [(r, m) for r, m, _ in pos] + zero
        processed.append(a)
    out_rays = tuple(sorted(r for r, _ in rays))
    if lineality:
        lineality = kernel_basis(tuple(processed), n)
    return out_rays, tuple(lineality)


def det_fraction(rows):
    """Exact determinant of a square matrix with Fraction/int entries."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pr = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def invariant_factors_minor_fraction(m):
    """Invariant factors from gcds of k x k minors."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[Fraction(m[i][j]) for j in cols] for i in rows]
                g = math.gcd(g, abs(int(det_fraction(sub))))
        if g == 0:
            factors.append(0)
        else:
            factors.append(g // prev)
            prev = g
    return tuple(factors)


def dual_cone_facet_fraction(generators, n):
    """Extreme rays of {m : <m,v> >= 0} by (n-1)-subset kernel enumeration.

    Only valid for full-dimensional pointed input cones (the dual is then
    pointed and full-dimensional).  A kernel vector of a rank-(n-1) subset
    that evaluates >= 0 on every generator supports a facet, hence is an
    extreme ray of the dual; all extreme rays arise this way.
    """
    candidates = set()
    for subset in itertools.combinations(generators, n - 1):
        rows = [[Fraction(x) for x in g] for g in subset]
        # kernel of the subset via Cramer with one pivot column freed
        for free in range(n):
            cols = [j for j in range(n) if j != free]
            sub = [[row[j] for j in cols] for row in rows]
            if len(sub) != n - 1:
                break
            denom = det_fraction(sub)
            if denom == 0:
                continue
            rhs = [-row[free] for row in rows]
            sol = []
            for j in range(n - 1):
                num = det_fraction([
                    [sub[i][jj] if jj != j else rhs[i] for jj in range(n - 1)]
                    for i in range(n - 1)
                ])
                sol.append(num / denom)
            vec = [Fraction(0)] * n
            vec[free] = Fraction(1)
            for j, c in zip(cols, sol):
                vec[j] = c
            den = math.lcm(*(f.denominator for f in vec))
            ivec = tuple(int(f * den) for f in vec)
            for cand in (ivec, vneg(ivec)):
                if all(dot(cand, g) >= 0 for g in generators):
                    candidates.add(primitive(cand))
            break
    return tuple(sorted(candidates))


def _fm_normalize(rows):
    """Scale each constraint to primitive integer form and deduplicate."""
    seen = set()
    out = []
    for row in rows:
        den = math.lcm(*(f.denominator for f in row))
        ints = tuple(int(f * den) for f in row)
        if all(x == 0 for x in ints):
            continue
        g = 0
        for x in ints:
            g = math.gcd(g, abs(x))
        ints = tuple(x // g for x in ints)
        if ints not in seen:
            seen.add(ints)
            out.append([Fraction(x) for x in ints])
    return out


def in_cone_fm_fraction(generators, v):
    """Membership of v in cone(generators) by Fourier-Motzkin elimination.

    Feasibility of {x >= 0 : sum x_i g_i = v}, eliminating one multiplier at
    a time over exact rationals; no linear programming involved.
    """
    k = len(generators)
    n = len(v)
    # constraints: coeffs over x_1..x_k plus constant, meaning sum + const >= 0
    cons = []
    for i in range(k):
        cons.append([Fraction(1) if j == i else Fraction(0) for j in range(k)] + [Fraction(0)])
    for row in range(n):
        eq = [Fraction(g[row]) for g in generators] + [Fraction(-v[row])]
        cons.append(list(eq))
        cons.append([-c for c in eq])
    for var in range(k):
        cons = _fm_normalize(cons)
        pos = [c for c in cons if c[var] > 0]
        neg = [c for c in cons if c[var] < 0]
        zero = [c for c in cons if c[var] == 0]
        new = list(zero)
        for cp in pos:
            for cn in neg:
                combo = [a * (-cn[var]) + b * cp[var] for a, b in zip(cp, cn)]
                new.append(combo)
        cons = new
    return all(c[-1] >= 0 for c in cons)


def simplicial_log_discrepancy_fraction(rays, boundary_coeffs, e):
    """Sum alpha_i (1 - b_i) with e = sum alpha_i u_i solved by Cramer's rule."""
    n = len(e)
    a = [[Fraction(rays[j][i]) for j in range(n)] for i in range(n)]
    d = det_fraction(a)
    if d == 0:
        raise LatticeError("rays are not simplicial")
    total = Fraction(0)
    for j in range(n):
        num = det_fraction([
            [a[i][jj] if jj != j else Fraction(e[i]) for jj in range(n)]
            for i in range(n)
        ])
        total += (num / d) * (1 - Fraction(boundary_coeffs[j]))
    return total


@st.composite
def unimodular(draw, n):
    """A random (U, U^-1) in GL_n(Z): a product of elementary row operations,
    each adding a multiple in [-2, 2] of one row to another, swapping two
    rows or negating one."""
    u = [list(row) for row in identity_matrix(n)]
    u_inv = [list(row) for row in identity_matrix(n)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("add", "swap", "neg")))
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i)) if n > 1 else i
        if kind == "add" and i != j:
            k = draw(st.integers(-2, 2))
            # U <- E U with E = I + k e_i e_j^T;  U^-1 <- U^-1 E^-1
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
            for row in u_inv:
                row[j] -= k * row[i]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
            for row in u_inv:
                row[i], row[j] = row[j], row[i]
        elif kind == "neg":
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]
    return tuple(map(tuple, u)), tuple(map(tuple, u_inv))
