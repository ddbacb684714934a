"""Exact integer linear algebra and rational polyhedral cones and fans.

Everything here is exact: lattice vectors are tuples of Python ints, and
there is no floating point anywhere.  Cones are stored by generators; the
supporting-halfspace description (facet normals plus equations) is derived
on demand by a double description pass and memoized.

A face of a canonical cone is determined by its rays, so a face is only
ever an int bitmask over its fan's ray index (a lone cone is a one-cone
fan), and containment between faces is subset inclusion, no geometric test.
A fan built from another one (a subfan of faces, a tower level) can carry a
rule that derives its facet masks from the other fan's by bit arithmetic,
in place of a double description pass per cone.
"""

import functools
import math
import operator
from collections import namedtuple

DEFAULT_MAX_DIM = 10
DEFAULT_MAX_RAYS = 500
MAX_SAMPLES = 10_000  # per check or suite call; every built-in use draws at most 200
MAX_FACES = 100_000  # per Fan.face_masks walk, regularity_subfan search or DD ray list; the largest measured is 13,088;
# also per fan_validate pair loop, whose largest on the benchmark is 630 pairs (36 pointed cones),
# and per normalized_volume triangulation, whose largest on the benchmark pops 1,290 faces


class LatticeError(ValueError):
    """Invalid lattice data (zero vector where nonzero required, shape mismatch...)."""


class ResourceCapError(RuntimeError):
    """A dimension, ray-count, sample-count, face-count or digit cap was exceeded."""


class Violation(namedtuple("Violation", "kind detail")):
    """One fan_validate failure; fan_validate returns a list of these instead of raising."""

    __slots__ = ()


def check_samples(samples):
    """The sample-count rule of every check and suite: 0 to MAX_SAMPLES."""
    if samples < 0:
        raise LatticeError(f"samples must be >= 0, got {samples}")
    if samples > MAX_SAMPLES:
        raise ResourceCapError(f"samples {samples} exceeds cap {MAX_SAMPLES}")


def _integers(values):
    """`values` as a tuple of ints by operator.index, which, unlike int(), truncates
    no float or Fraction: LatticeError names an entry that is not an integer."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(type(v), "__index__")), values)
        raise LatticeError(f"{bad!r} is not an integer") from None


# ---------------------------------------------------------------------------
# vectors: hot in the double description, so each helper is one C-level
# builtin (references in tests/oracles.py).  vscale keeps binary-operator
# dispatch: verify scales Fraction entries by ints and ints by Fractions.


def dot(a, b):
    if len(a) != len(b):
        raise LatticeError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(operator.mul, a, b))


def vadd(a, b):
    return tuple(map(operator.add, a, b))


def vneg(a):
    return tuple(map(operator.neg, a))


def vscale(k, a):
    return tuple([k * x for x in a])


def is_zero(a):
    return not any(a)


def content(a):
    """gcd of the entries (0 for the zero vector)."""
    return math.gcd(*a)


def primitive(v):
    """v divided by the gcd of its entries; direction unchanged."""
    g = content(v)
    if g == 0:
        raise LatticeError("zero vector has no primitive representative")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def unit_vector(n, i):
    return (0,) * i + (1,) + (0,) * (n - i - 1)


# ---------------------------------------------------------------------------
# integer matrices


def identity_matrix(n):
    return tuple(unit_vector(n, i) for i in range(n))


def transpose(m, ncols=None):
    if not m:
        return tuple(() for _ in range(ncols or 0))
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def bareiss_step(pivot, c, prev, rows):
    """One fraction-free (Bareiss) step: clear column c of each row against
    `pivot`, drop that column and divide by `prev`, the pivot of the step
    before (1 at the start).  Every entry stays a minor, so it is exact."""
    p, keep = pivot[c], pivot[:c] + pivot[c + 1:]
    return [[(x * p - r[c] * y) // prev for x, y in zip(r[:c] + r[c + 1:], keep)] for r in rows]


def det_int(m, prev=1):
    """Exact determinant of a square integer matrix (fraction-free Bareiss).
    With `prev`, m is the block left by Bareiss steps whose last pivot was
    `prev`, and the result is +/- the determinant of the whole matrix."""
    rows, sign = list(m), 1
    while len(rows) > 1:
        pivot, rows = rows[0], rows[1:]
        c = next((j for j, x in enumerate(pivot) if x), None)
        if c is None:
            return 0
        sign = -sign if c % 2 else sign
        rows, prev = bareiss_step(pivot, c, prev, rows), pivot[c]
    return sign * rows[0][0] if rows else prev


def is_unimodular(m):
    return len(m) > 0 and len(m) == len(m[0]) and abs(det_int(m)) == 1


def hnf(m):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, H = U*m, H in upper-echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    h = [list(row) for row in m]
    u = [list(row) for row in identity_matrix(nr)]

    def row_sub(i, j, q):
        if q:
            h[i] = [x - q * y for x, y in zip(h[i], h[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for c in range(nc):
        # gcd the column below row r down to a single nonzero entry
        while True:
            nz = [i for i in range(r, nr) if h[i][c] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            for i in nz:
                if i != i0:
                    row_sub(i, i0, h[i][c] // h[i0][c])
        nz = [i for i in range(r, nr) if h[i][c] != 0]
        if not nz:
            continue
        piv = nz[0]
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            row_sub(i, r, h[i][c] // h[r][c])
        r += 1
    return tuple(tuple(row) for row in h), tuple(tuple(row) for row in u)


def rank_int(m):
    if not m or not m[0]:
        return 0
    h, _ = hnf(m)
    return sum(1 for row in h if any(row))


def snf(m):
    """Smith normal form, by alternating Hermite forms (Kannan & Bachem 1979).

    Returns (S, U, V) with S = U*m*V diagonal, each diagonal entry
    non-negative and dividing the next, U and V unimodular.  Row and column
    Hermite forms alternate until S is diagonal.  Where d_i does not divide a
    later d_j, column j is added to column i; the next row form then puts
    gcd(d_i, d_j) at (i, i), so the diagonal falls strictly in lexicographic
    order and the loop ends.  Every step is an `hnf`, which keeps its entries
    reduced, so they do not grow as a pivoting elimination's can.  U and V
    start as the first pass's transforms, so a matrix that one pass
    diagonalizes pays no product.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    s, u, v = m, None, None
    while True:
        s, w = hnf(s)
        u = w if u is None else mat_mul(w, u)
        t, w = hnf(transpose(s, nc))
        s, w = transpose(t, nr), transpose(w)
        v = w if v is None else mat_mul(v, w)
        if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            continue
        d = [s[i][i] for i in range(min(nr, nc))]
        pair = next(((i, j) for j in range(len(d)) for i in range(j) if d[i] and d[j] % d[i]), None)
        if pair is None:
            return s, u, v
        i, j = pair
        s, v = ([r[:i] + (r[i] + r[j],) + r[i + 1:] for r in a] for a in (s, v))


def kernel_basis(m, ncols):
    """A basis (rows) of the integer kernel {x : m*x = 0}, not in Hermite form:
    the ncols - rank(m) rows of the unimodular U, U*m^T = H, where H is zero,
    so they are saturated (every invariant factor is 1)."""
    h, u = hnf(transpose(m, ncols=ncols))
    return tuple(u[i] for i in range(len(h)) if not any(h[i]))


# ---------------------------------------------------------------------------
# double description


def halfspace_intersection(constraints, n):
    """V-description of the cone {x in R^n : <a, x> >= 0 for every a}.

    Returns (rays, lineality): the extreme rays of the pointed part (primitive,
    lex-sorted) and a saturated basis of the lineality space (kernel_basis of
    the processed rows, so in general not in Hermite form).  Double description
    with incremental lineality reduction; the adjacency test is the standard
    combinatorial one, valid because the ray list stays minimal at every step.
    Deterministic: first-index pivoting, lexicographically sorted output.
    ResourceCapError when a row leaves more than MAX_FACES rays.

    Adjacency pre-filter (Fukuda & Prodon, 1996): the processed rows have rank
    k = n - len(lineality), and adjacent rays span a 2-face, whose tight rows
    have rank k - 2, so a pair with fewer common tight rows skips the scan.
    A count bounds a rank, also with implicit equalities (a and -a) or repeats.

    A lineality vector or ray v whose pairing with the new row is 0 is kept as
    it is: its combination s0*v - 0*l0 is s0*v, and v is already primitive (a
    unit vector, l0, or a primitive combination), so primitive(s0*v) is v.
    """
    lineality = [unit_vector(n, i) for i in range(n)]
    rays = []  # (vector, tight-bitmask over processed constraints)
    processed = []
    mul = operator.mul  # pairings skip dot's length check: every row and ray has length n
    for a in constraints:
        a = tuple(a)
        if len(a) != n:
            raise LatticeError(f"constraint has dimension {len(a)}, expected {n}")
        if is_zero(a):
            continue
        bit = 1 << len(processed)
        lvals = [sum(map(mul, a, l)) for l in lineality]
        j0 = next((j for j, s in enumerate(lvals) if s != 0), None)
        if j0 is not None:
            l0, s0 = lineality[j0], lvals[j0]
            if s0 < 0:
                l0, s0 = vneg(l0), -s0
            lineality = [
                l if s == 0 else _primitive_combination(s0, l, s, l0)
                for j, (l, s) in enumerate(zip(lineality, lvals))
                if j != j0
            ]
            new_rays = []
            for r, mask in rays:
                rv = sum(map(mul, a, r))
                new_rays.append((r if rv == 0 else _primitive_combination(s0, r, rv, l0), mask | bit))
            new_rays.append((l0, bit - 1))  # tight on every previously processed row
            rays = new_rays
        else:
            pos, zero, neg = [], [], []
            for r, mask in rays:
                rv = sum(map(mul, a, r))
                if rv > 0:
                    pos.append((r, mask, rv))
                elif rv < 0:
                    neg.append((r, mask, rv))
                else:
                    zero.append((r, mask | bit))
            if neg:
                combos = {}
                edge = n - len(lineality) - 2  # tight rows of any 2-face
                for p, mp, pv in pos:
                    for q, mq, qv in neg:
                        t = mp & mq
                        if t.bit_count() < edge or any(
                            (t & ~mr) == 0 for r, mr in rays if r is not p and r is not q
                        ):
                            continue
                        # exact: <c, w> = pv<c, q> - qv<c, p>, both terms >= 0
                        w = _primitive_combination(pv, q, qv, p)
                        if w is not None:
                            combos.setdefault(w, t | bit)
                rays = [(r, m) for r, m, _ in pos] + zero + sorted(combos.items())
            else:
                rays = [(r, m) for r, m, _ in pos] + zero
        if len(rays) > MAX_FACES:
            raise ResourceCapError(f"double description passed the cap of {MAX_FACES} rays")
        processed.append(a)
    out_rays = tuple(sorted(r for r, _ in rays))
    if lineality:
        lineality = kernel_basis(tuple(processed), n)
    return out_rays, tuple(lineality)


def _primitive_combination(a, x, b, y):
    """primitive(a*x - b*y) in one pass, or None when it is zero."""
    w = [a * p - b * q for p, q in zip(x, y)]
    g = math.gcd(*w)
    if g == 1:
        return tuple(w)
    return tuple([c // g for c in w]) if g else None


def _halfspace_cone(constraints, n):
    """The canonical cone {x : <a, x> >= 0 for every a}: extreme rays, +/- lineality."""
    rays, lin = halfspace_intersection(constraints, n)
    gens = list(rays)
    for l in lin:
        gens.append(primitive(l))
        gens.append(primitive(vneg(l)))
    return Cone(n, tuple(sorted(gens)))


def _halfspace_rows(normals, equations):
    """The constraint rows of {x : <n, x> >= 0, <e, x> = 0}: normals, then +/-e."""
    rows = list(normals)
    for e in equations:
        rows.append(tuple(e))
        rows.append(vneg(e))
    return rows


# ---------------------------------------------------------------------------
# cones


class Cone:
    """Rational polyhedral cone spanned by integer generators.

    Immutable; the supporting-halfspace description is computed once on
    demand and memoized (idempotent).  Cones produced by this module are
    canonical: generators are the primitive extreme rays in lex order
    (plus a +/- lineality basis for non-pointed cones).  Raw, possibly
    non-canonical cones can be constructed directly for validation.
    """

    __slots__ = ("ambient_dim", "generators", "_halfspaces")

    def __init__(self, ambient_dim, generators=()):
        (self.ambient_dim,) = _integers((ambient_dim,))
        gens = tuple(map(_integers, generators))
        for g in gens:
            if len(g) != self.ambient_dim:
                raise LatticeError(f"generator {g} has dimension {len(g)}, expected {self.ambient_dim}")
        self.generators = gens
        self._halfspaces = None

    @classmethod
    def generated_by(cls, vectors, ambient_dim=None):
        """Canonical cone spanned by arbitrary vectors, by `pointed_form` on
        their distinct primitive directions: one double description pass, and
        a second, for the +/- lineality basis, only if the cone holds a line."""
        vectors = [tuple(v) for v in vectors]
        if ambient_dim is None:
            if not vectors:
                raise LatticeError("ambient_dim required for a cone with no generators")
            ambient_dim = len(vectors[0])
        raw = cls(ambient_dim, sorted({primitive(v) for v in vectors if not is_zero(v)}))
        cone = raw.pointed_form()
        if cone is None:
            cone = _halfspace_cone(_halfspace_rows(*raw.halfspaces()), ambient_dim)
            cone._halfspaces = raw.halfspaces()
        return cone

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_dim == other.ambient_dim
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.generators))

    def __repr__(self):
        return f"Cone(dim={self.ambient_dim}, generators={list(self.generators)})"

    def halfspaces(self):
        """(normals, equations): the cone is {x : <n,x> >= 0, <e,x> = 0}."""
        if self._halfspaces is None:
            self._halfspaces = halfspace_intersection(self.generators, self.ambient_dim)
        return self._halfspaces

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise LatticeError(
                f"vector dimension {len(v)} does not match ambient {self.ambient_dim}"
            )
        normals, equations = self.halfspaces()
        return all(dot(nrm, v) >= 0 for nrm in normals) and all(
            dot(e, v) == 0 for e in equations
        )

    def dim(self):
        return rank_int(self.generators)

    def is_strongly_convex(self):
        normals, equations = self.halfspaces()
        rows = tuple(normals) + tuple(equations)
        return rank_int(rows) == self.ambient_dim

    def pointed_form(self):
        """The canonical cone (extreme rays in lex order, these halfspaces)
        of a cone with distinct primitive nonzero generators, or None if it
        holds a line: `_extreme_mask` on the facet masks of the cone's
        one-cone fan."""
        fan = Fan(self.ambient_dim, (self,))
        extreme = _extreme_mask(fan.ray_index()[1][0], fan.facet_masks(0))
        if self.generators and not extreme:
            return None
        cone = Cone(self.ambient_dim, [fan.all_rays[i] for i in bit_indices(extreme)])
        cone._halfspaces = self.halfspaces()
        return cone

    def faces(self):  # no caller in src/; the benchmark traces it
        """All faces (itself and the zero cone included), canonical: the face
        masks of the one-cone fan by (size, ray indices).  For a canonical cone
        (its extreme rays in lex order, as every cone this module builds) that
        is (size, generator positions)."""
        fan = Fan(self.ambient_dim, (self,))
        subsets = sorted(map(bit_indices, fan.face_masks()), key=lambda s: (len(s), s))
        return [Cone(self.ambient_dim, tuple(fan.all_rays[i] for i in s)) for s in subsets]


def bit_indices(mask):
    """The indices of the set bits of `mask`, ascending, one lowest set bit
    at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _face_hull(mask, top, facets):
    """The one face rule (Cox-Little-Schenck, §1.2): the face of the cone with
    rays `top` and facet masks `facets` spanned by `mask`, as `top` ANDed with
    the facets that contain `mask`.  A mask is a face iff it is its own hull
    (a mask outside `top` never is), and a ray is extreme iff its hull is that
    ray alone.  Bits of a facet mask outside `top` do not matter."""
    return functools.reduce(operator.and_, (f for f in facets if f & mask == mask), top)


def _extreme_mask(top, facets):
    """The extreme rays of a cone, as the mask of the rays of `top` whose face
    hull is the ray alone.  When the cone holds a line, so does every face,
    and no ray passes."""
    out, rest = 0, top
    while rest:
        b = rest & -rest
        rest ^= b
        if _face_hull(b, top, facets) == b:
            out |= b
    return out


def maximal_masks(masks):
    """The inclusion-maximal masks among `masks`, each once, largest first."""
    keep = []
    for a in sorted(masks, key=int.bit_count, reverse=True):
        if not any(a & b == a for b in keep):
            keep.append(a)
    return keep


def remap(mask, rays, bit):
    """A mask over the index of `rays`, as a mask over the ray index `bit`."""
    return sum(bit[rays[i]] for i in bit_indices(mask))


def walk_faces(top, facets, seen):
    """Add to the set `seen` the face masks reached from `top` (included) by
    intersecting with the facet masks `facets`.  A face
    already in `seen` is not walked again: the faces below a face are those
    of any cone it is a face of, so a fan walks a shared face once.
    ResourceCapError once `seen` holds more than MAX_FACES faces."""
    seen.add(top)
    stack = [top]
    while stack:
        cur = stack.pop()
        for f in facets:
            sub = cur & f
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
        if len(seen) > MAX_FACES:
            raise ResourceCapError(f"face walk passed the cap of {MAX_FACES} faces")


def dual_cone(c, max_dim=DEFAULT_MAX_DIM):
    """The dual cone {m : <m,v> >= 0 for all v in c}, by primitive extreme rays
    (plus a +/- lineality basis when the dual is not strongly convex)."""
    if c.ambient_dim > max_dim:
        raise ResourceCapError(
            f"ambient dimension {c.ambient_dim} exceeds configured cap {max_dim}"
        )
    return _halfspace_cone(c.generators, c.ambient_dim)


def is_face_of(small, big):  # no caller in src/; the benchmark traces it
    """Whether the cone `small` is a face of the canonical cone `big`.

    `small` may list its extreme rays in any order; `big` must be canonical
    (generators are its extreme rays), as for every cone this module builds.
    The test is Fan.face_mask on the one-cone fan of `big`.
    """
    return Fan(big.ambient_dim, (big,)).face_mask(small) is not None


def intersect_cones(a, b):
    """The intersection cone, canonical.  Exact, via double description."""
    if a.ambient_dim != b.ambient_dim:
        raise LatticeError("ambient dimension mismatch")
    rows = _halfspace_rows(*a.halfspaces()) + _halfspace_rows(*b.halfspaces())
    return _halfspace_cone(rows, a.ambient_dim)


# ---------------------------------------------------------------------------
# fans


class Fan:
    """A fan stored by its maximal cones; faces are implicit, as masks over
    the ray index (see ray_index).

    all_rays is the deduplicated lex-sorted union of the cones' rays.
    Construction does not validate; see fan_validate.  `facets`, if given, is
    a rule facets(fan, k) giving the facet masks of maximal cone k, in any
    order, from the fan this one was built from (see facet_masks).
    """

    __slots__ = ("ambient_dim", "maximal_cones", "all_rays", "_index", "_facets", "_facet_rule")

    def __init__(self, ambient_dim, cones, facets=None):
        (self.ambient_dim,) = _integers((ambient_dim,))
        seen = {}
        for c in cones:
            if c.ambient_dim != self.ambient_dim:
                raise LatticeError("cone ambient dimension does not match fan")
            seen.setdefault(tuple(sorted(c.generators)), c)  # one cone, whatever its ray order
        self.maximal_cones = tuple(sorted(seen.values(), key=lambda c: c.generators))
        self.all_rays = tuple(sorted({g for c in self.maximal_cones for g in c.generators}))
        self._index = None
        self._facets = {}
        self._facet_rule = facets

    @classmethod
    def from_cones(cls, ambient_dim, cones):  # no caller in src/; the benchmark traces it
        """Build a fan, pruning cones contained in other listed cones."""
        cones = list(dict.fromkeys(cones))
        keep = []
        for c in cones:
            if any(
                other is not c and all(other.contains(g) for g in c.generators)
                and not all(c.contains(g) for g in other.generators)
                for other in cones
            ):
                continue
            keep.append(c)
        return cls(ambient_dim, keep)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.ambient_dim == other.ambient_dim
            and self.maximal_cones == other.maximal_cones
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(c.generators for c in self.maximal_cones)))

    def __repr__(self):
        return f"Fan(dim={self.ambient_dim}, maximal_cones={len(self.maximal_cones)})"

    def cone_index(self, *vectors):
        """The index of the first maximal cone (canonical order) that holds
        every vector, or None."""
        return next(
            (k for k, c in enumerate(self.maximal_cones) if all(map(c.contains, vectors))), None
        )

    def ray_index(self):
        """(bit, tops), built once: `bit` maps each ray of all_rays to 1 << its
        position, and tops[k] is maximal cone k as a mask over that index.
        Since all_rays is lex-sorted, ascending bits are ascending rays."""
        if self._index is None:
            bit = {g: 1 << i for i, g in enumerate(self.all_rays)}
            self._index = bit, tuple(
                functools.reduce(operator.or_, map(bit.get, c.generators), 0)
                for c in self.maximal_cones
            )
        return self._index

    def facet_masks(self, k):
        """The facets of maximal cone k as masks over the ray index, ascending
        (memoized on the first call).  A fan built with a `facets` rule derives
        them by bit arithmetic; any other fan takes, per facet normal of the
        cone (one double description pass), its rays on the hyperplane, a
        repeated generator as one bit."""
        if k not in self._facets:
            if self._facet_rule is not None:
                masks = self._facet_rule(self, k)
            else:
                bit, _ = self.ray_index()
                gens = self.maximal_cones[k].generators
                masks = (
                    functools.reduce(operator.or_, (bit[g] for g in gens if dot(nrm, g) == 0), 0)
                    for nrm in self.maximal_cones[k].halfspaces()[0]
                )
            self._facets[k] = tuple(sorted(masks))
        return self._facets[k]

    def _is_face(self, k, mask):
        """Whether `mask` is a face of maximal cone k: its own `_face_hull`."""
        return _face_hull(mask, self.ray_index()[1][k], self.facet_masks(k)) == mask

    def face_masks(self):
        """Every face of the fan once, as a mask over the ray index, from one
        walk over all maximal cones (ResourceCapError past MAX_FACES)."""
        seen = set()
        for k, top in enumerate(self.ray_index()[1]):
            walk_faces(top, self.facet_masks(k), seen)
        return seen

    def face_mask(self, cone):
        """The mask over the ray index of `cone` (its rays in any order) if it
        is a face of a maximal cone, else None."""
        bit, tops = self.ray_index()
        bits = {bit.get(g, 0) for g in cone.generators}
        if cone.ambient_dim != self.ambient_dim or 0 in bits or len(bits) < len(cone.generators):
            return None  # another dimension, a missing or a repeated ray
        mask = sum(bits)
        return mask if any(self._is_face(k, mask) for k in range(len(tops))) else None


def orthant_fan(n):
    """Fan of affine n-space: the positive orthant and its faces.  Its facets
    are the masks that leave out one ray."""
    full = (1 << n) - 1
    cone = Cone(n, tuple(sorted(unit_vector(n, i) for i in range(n))))
    return Fan(n, (cone,), lambda fan, k: (full & ~(1 << i) for i in range(n)))


def projective_fan(n):
    """Complete fan of projective n-space; rays e_1..e_n and -(e_1+...+e_n)."""
    rays = [unit_vector(n, i) for i in range(n)] + [tuple(-1 for _ in range(n))]
    cones = []
    for skip in range(n + 1):
        gens = tuple(sorted(r for i, r in enumerate(rays) if i != skip))
        cones.append(Cone(n, gens))
    return Fan(n, cones)


def product_fan(a, b):
    """Product fan: maximal cones are products of maximal cones."""
    n = a.ambient_dim + b.ambient_dim
    zero_a = (0,) * a.ambient_dim
    zero_b = (0,) * b.ambient_dim
    cones = []
    for ca in a.maximal_cones:
        for cb in b.maximal_cones:
            gens = [g + zero_b for g in ca.generators] + [zero_a + g for g in cb.generators]
            cones.append(Cone(n, tuple(sorted(gens))))
    return Fan(n, cones)


def _separation_certificate(tables, faces):
    """certified(i, j): a proof by sign tests that the canonical pointed cones
    i and j meet in a common face (Cox-Little-Schenck, Lemma 1.2.13), as mask
    arithmetic over one ray index that holds their rays.

    Every row of a cone (facet normals, each equation and its negation) is
    >= 0 on it; tables[k] holds, per row of cone k, the masks of the rays
    where it is = 0 and where it is <= 0, and faces[k] is the mask of the
    cone's extreme rays.  Let F_i, F_j be faces of cones i, j with
    F_i & F_j = i & j, at first the cones themselves.  m = (rows of i <= 0 on
    F_j) - (rows of j <= 0 on F_i) is >= 0 on F_i and <= 0 on F_j, so it
    vanishes on i & j, and on a ray iff every selected row does: ANDing F_i
    and F_j with those rows' zero masks gives smaller such faces.  Once both
    are the same mask, that face is i & j; if they stop shrinking first,
    there is no proof.
    """

    def certified(i, j):
        face_i, face_j = faces[i], faces[j]
        while True:
            tight = -1  # keeps every ray; ANDs the zero masks of the rows <= 0 on the other face
            for k, face in ((i, face_j), (j, face_i)):
                for z, np in tables[k]:
                    if np & face == face:
                        tight &= z
            sub_i, sub_j = face_i & tight, face_j & tight
            if sub_i == sub_j:
                return True
            if (sub_i, sub_j) == (face_i, face_j):
                return False
            face_i, face_j = sub_i, sub_j

    return certified


def fan_validate(fan):
    """Validation report for a fan; an empty list means valid.

    Checks primitive, nonzero, pairwise-distinct generators, then builds each
    remaining cone's sign table once: per row of its memoized halfspaces, the
    masks over `fan.all_rays` where the row is = 0 and <= 0.  Its facet
    normals' zero masks give its extreme rays by `_extreme_mask`, the rule of
    `Cone.pointed_form`, so a cone with none contains a line (no rank test,
    no second double description).  Any two maximal cones must intersect in
    a common face.  The separation lemma certificate (Cox-Little-Schenck,
    Lemma 1.2.13) reads the sign tables and is only sufficient: a pair
    without one is intersected by double description on the two cones'
    memoized halfspaces, and the mask of its rays must be a face of both by
    `_face_hull`.  Only that fallback reports "intersection not a face".
    ResourceCapError when the pointed cones make more than MAX_FACES pairs.
    """
    violations = []
    mul = operator.mul  # pairings skip dot's length check: Cone and Fan fix every length
    bit, tops = fan.ray_index()
    cones, tables, faces, facets = [], [], [], []
    for c, top in zip(fan.maximal_cones, tops):
        ok = True
        seen = set()
        for g in c.generators:
            if is_zero(g):
                violations.append(Violation("non-primitive ray", f"zero generator in cone {list(c.generators)}"))
                ok = False
                continue
            if content(g) != 1:
                violations.append(Violation("non-primitive ray", f"ray {list(g)} has content {content(g)}"))
                ok = False
            if g in seen:
                violations.append(Violation("duplicate ray", f"ray {list(g)} listed twice in a cone"))
                ok = False
            seen.add(g)
        if not ok:
            continue
        normals, equations = c.halfspaces()
        table = []  # per row: (rays where it is = 0, rays where it is <= 0)
        for row in _halfspace_rows(normals, equations):
            z = np = 0
            for g, b in bit.items():
                x = sum(map(mul, row, g))
                if x <= 0:
                    np |= b
                    if not x:
                        z |= b
            table.append((z, np))
        zeros = [z for z, _ in table[:len(normals)]]
        extreme = _extreme_mask(top, zeros)
        if c.generators and not extreme:
            violations.append(Violation("not strongly convex", f"cone {list(c.generators)} contains a line"))
            continue
        cones.append(c)
        tables.append(table)
        faces.append(extreme)
        facets.append(zeros)
    if len(cones) * (len(cones) - 1) // 2 > MAX_FACES:
        raise ResourceCapError(f"fan validation passed the cap of {MAX_FACES} cone pairs")

    certified = _separation_certificate(tables, faces)
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            if certified(i, j):
                continue
            inter = intersect_cones(cones[i], cones[j])
            bits = [bit.get(g, 0) for g in inter.generators]  # 0: a ray of neither cone
            mask = sum(bits)
            if not (all(bits) and all(_face_hull(mask, faces[k], facets[k]) == mask for k in (i, j))):
                violations.append(Violation("intersection not a face", (
                    f"cones {list(cones[i].generators)} and {list(cones[j].generators)} "
                    f"meet in {list(inter.generators)} which is not a common face")))
    return violations
