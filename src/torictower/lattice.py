"""Exact integer linear algebra and rational polyhedral cones and fans.

Everything here is exact: lattice vectors are tuples of Python ints, and
there is no floating point anywhere.  Cones are stored by generators; the
supporting-halfspace description (facet normals plus equations) is derived
on demand by a double description pass and memoized; `Cone.halfspaces` is
the only caller of that pass here, and a cone's dual, dimension, extreme rays
and faces are read off its memo.

A face of a canonical cone is determined by its rays, so a face is only
ever an int bitmask over its fan's ray index (a lone cone is a one-cone
fan), and containment between faces is subset inclusion, no geometric test.
A fan whose cones lift faces of another (a regularity subfan, a tower
level) is a `derived_fan`, built with its facet masks derived from the
other fan's by bit arithmetic, in place of a double description pass per cone.
"""

import functools
import math
import operator
from fractions import Fraction

DEFAULT_MAX_DIM = 10
DEFAULT_MAX_RAYS = 500
MAX_SAMPLES = 10_000  # per check or suite call; every built-in use draws at most 200
MAX_FACES = 100_000  # per Fan.face_masks walk (largest measured: 19,612 faces, the top of tests/corpus.py's
# near_cap_tower(57), the most of its seeds 0-99), regular-face search, DD ray list, fan_validate pair loop
# (benchmark's largest: 630 pairs of 36 pointed cones) and normalized_volume triangulation (1,290 popped faces)


class LatticeError(ValueError):
    """Invalid lattice data (zero vector where nonzero required, shape mismatch...)."""


class ResourceCapError(RuntimeError):
    """A dimension, ray-count, sample-count, face-count or digit cap was exceeded."""


def _is_int(x):
    """An int, not a bool: True builds as 1 but no tower document holds `true`."""
    return isinstance(x, int) and not isinstance(x, bool)


def _shown(value):
    """repr(value), or, past the int-to-str digit limit, a name that prints no digit."""
    try:
        return repr(value)
    except ValueError:  # a Fraction's or a list's repr prints its ints too
        if _is_int(value):
            return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} past the digit limit>"


def check_count(value, name, low=0, cap=None):
    """The one rule of every count, dimension, degree, level and cap a caller
    passes: an int (not a bool) of at least `low`, else LatticeError, and, if
    `cap` is given, at most `cap`, else ResourceCapError."""
    if not _is_int(value):
        raise LatticeError(f"{name} {_shown(value)} is not an int")
    if value < low:
        raise LatticeError(f"{name} must be >= {low}, got {_shown(value)}")
    if cap is not None and value > cap:
        raise ResourceCapError(f"{name} {_shown(value)} exceeds cap {cap}")


def check_samples(samples):
    """The sample-count rule of every check and suite: a count from 0 to MAX_SAMPLES."""
    check_count(samples, "samples", cap=MAX_SAMPLES)


def check_seed(seed):
    """The seed rule of every seeded draw: an int (not a bool) of any sign.
    None is no seed: random.Random(None) draws from OS entropy."""
    check_count(seed, "seed", low=-math.inf)


def _decimal_int(text):
    """The int of an ASCII decimal string [+-]?[0-9]+, else None: no space,
    `_`, `.`, `e` or `２`, and none past the int-to-str digit limit."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter's int-to-str limit
            pass
    return None


def _rational(value):
    """The rule of every divisor coefficient: an int (not a bool), a Fraction,
    or an ASCII decimal string `p` or `p/q`, as a Fraction.  Anything else is
    a LatticeError, so no float's binary expansion and no exponent string's
    huge integer is ever built."""
    if isinstance(value, Fraction) or _is_int(value):
        return Fraction(value)
    p, slash, q = value.partition("/") if isinstance(value, str) else ("", "", "")
    p, q = _decimal_int(p), _decimal_int(q) if slash else 1
    if p is not None and q:  # q is None for a bad denominator, 0 for a zero one
        return Fraction(p, q)
    raise LatticeError(f"coefficient {value!r} is not an int, a Fraction or a decimal string p or p/q")


def _integers(values):
    """`values` as a tuple of ints by operator.index, which, unlike int(), truncates
    no float or Fraction: LatticeError names a non-integer entry, or `values` if not iterable."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        if not hasattr(values, "__iter__"):
            raise LatticeError(f"vector {_shown(values)} is not a sequence") from None
        bad = next((v for v in values if not hasattr(type(v), "__index__")), values)
        raise LatticeError(f"{_shown(bad)} is not an integer") from None


class _Record:
    """The base of every validated named tuple: its constructor keeps a list
    field as a tuple, so equal records hash equal, and any other value as given."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, [tuple(v) if isinstance(v, list) else v for v in fields])

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so every path runs __new__
        return cls(*iterable)


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

    No combination is zero, so _primitive_combination never meets one.  The
    lineality vectors stay independent, so s0*l - s*l0 (l != l0) is not zero.
    No ray lies in the lineality span L, which only shrinks: a new ray l0 has
    <a, l0> = s0 != 0, so it leaves the new span; s0*r - rv*l0 in the new
    span would put r in the old one, so it is also not zero; and
    pv*q - qv*p (pv > 0 > qv) in L, zero included, would put p and -p in the
    cone modulo L, which is pointed, so p in L.
    """
    check_count(n, "n")
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
                        combos.setdefault(_primitive_combination(pv, q, qv, p), t | bit)
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
    """primitive(a*x - b*y) in one pass; never zero in halfspace_intersection."""
    w = [a * p - b * q for p, q in zip(x, y)]
    g = math.gcd(*w)
    if g == 1:
        return tuple(w)
    return tuple([c // g for c in w])


def _dual(c):
    """The canonical dual of c from its memoized halfspaces: extreme rays, +/- lineality."""
    rays, lin = c.halfspaces()
    gens = list(rays)
    for l in lin:
        gens.append(primitive(l))
        gens.append(primitive(vneg(l)))
    return Cone(c.ambient_dim, tuple(sorted(gens)))


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
        a second, the `_dual` of its halfspace rows, only if it holds a line."""
        vectors = list(map(_integers, vectors))
        if ambient_dim is None:
            if not vectors:
                raise LatticeError("ambient_dim required for a cone with no generators")
            ambient_dim = len(vectors[0])
        raw = cls(ambient_dim, sorted({primitive(v) for v in vectors if not is_zero(v)}))
        cone = raw.pointed_form()
        if cone is None:
            cone = _dual(Cone(ambient_dim, _halfspace_rows(*raw.halfspaces())))
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
        """n - dim of the orthogonal space (Cox-Little-Schenck, §1.2): n less the equations."""
        return self.ambient_dim - len(self.halfspaces()[1])

    def pointed_form(self):
        """The canonical cone (extreme rays in lex order, these halfspaces)
        of a cone with distinct primitive nonzero generators, or None if it
        holds a line: `_extreme_mask` on the facet masks of the cone's
        one-cone fan."""
        fan = Fan(self.ambient_dim, (self,))
        extreme = _extreme_mask(fan.tops[0], fan.facet_masks(0))
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
        for b in keep:
            if a & b == a:
                break
        else:
            keep.append(a)
    return keep


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
    (plus a +/- lineality basis when the dual is not strongly convex): `_dual`
    of c's memo, so that basis depends on the generators the memo came from."""
    check_count(max_dim, "max_dim")
    check_count(c.ambient_dim, "ambient dimension", cap=max_dim)
    return _dual(c)


def is_face_of(small, big):  # no caller in src/; the benchmark traces it
    """Whether the cone `small` is a face of the canonical cone `big`.

    `small` may list its extreme rays in any order; `big` must be canonical
    (generators are its extreme rays), as for every cone this module builds.
    The test is Fan.face_mask on the one-cone fan of `big`.
    """
    return Fan(big.ambient_dim, (big,)).face_mask(small) is not None


def intersect_cones(a, b):
    """The intersection cone, canonical: the `_dual` of the cone that both
    cones' halfspace rows generate (one double description pass)."""
    if a.ambient_dim != b.ambient_dim:
        raise LatticeError("ambient dimension mismatch")
    rows = _halfspace_rows(*a.halfspaces()) + _halfspace_rows(*b.halfspaces())
    return _dual(Cone(a.ambient_dim, rows))


# ---------------------------------------------------------------------------
# fans


class Fan:
    """A fan stored by its maximal cones; faces are implicit, as masks over
    the ray index built with the fan: all_rays is the deduplicated lex-sorted
    union of the cones' rays, `bit` maps each to 1 << its position (ascending
    bits are ascending rays), and tops[k] is maximal cone k as a mask.
    Construction does not validate; see fan_validate.  `orthant_fan` and
    `derived_fan` set every cone's facet masks when they build the fan (see
    facet_masks).
    """

    __slots__ = ("ambient_dim", "maximal_cones", "all_rays", "bit", "tops", "_facets")

    def __init__(self, ambient_dim, cones):
        (self.ambient_dim,) = _integers((ambient_dim,))
        seen = {}
        for c in cones:
            if c.ambient_dim != self.ambient_dim:
                raise LatticeError("cone ambient dimension does not match fan")
            seen.setdefault(tuple(sorted(c.generators)), c)  # one cone, whatever its ray order
        self.maximal_cones = tuple(sorted(seen.values(), key=lambda c: c.generators))
        self.all_rays = tuple(sorted({g for c in self.maximal_cones for g in c.generators}))
        self.bit = bit = {g: 1 << i for i, g in enumerate(self.all_rays)}
        self.tops = tuple(functools.reduce(operator.or_, map(bit.get, c.generators), 0) for c in self.maximal_cones)
        self._facets = {}  # maximal cone index -> its facet masks, ascending

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

    def facet_masks(self, k):
        """The facets of maximal cone k as masks over the ray index, ascending.
        `orthant_fan` and `derived_fan` set them when they build the fan; any
        other fan takes, on the first call (memoized), per facet normal of the
        cone (one double description pass), its rays on the hyperplane, a
        repeated generator as one bit."""
        if k not in self._facets:
            gens = self.maximal_cones[k].generators
            self._facets[k] = tuple(sorted(
                functools.reduce(operator.or_, (self.bit[g] for g in gens if dot(nrm, g) == 0), 0)
                for nrm in self.maximal_cones[k].halfspaces()[0]
            ))
        return self._facets[k]

    def face_masks(self):
        """Every face of the fan once, as a mask over the ray index, from one
        walk over all maximal cones (ResourceCapError past MAX_FACES)."""
        seen = set()
        for k, top in enumerate(self.tops):
            walk_faces(top, self.facet_masks(k), seen)
        return seen

    def face_mask(self, cone):
        """The mask over the ray index of `cone` (its rays in any order) if it
        is a face of a maximal cone, its own `_face_hull` there, else None."""
        bits = {self.bit.get(g, 0) for g in cone.generators}
        if cone.ambient_dim != self.ambient_dim or 0 in bits or len(bits) < len(cone.generators):
            return None  # another dimension, a missing or a repeated ray
        mask = sum(bits)
        return mask if any(_face_hull(mask, t, self.facet_masks(k)) == mask for k, t in enumerate(self.tops)) else None


def orthant_fan(n):
    """Fan of affine n-space: the positive orthant and its faces.  Its facets
    are the masks that leave out one ray."""
    check_count(n, "n")
    full = (1 << n) - 1
    fan = Fan(n, (Cone(n, tuple(sorted(unit_vector(n, i) for i in range(n)))),))
    fan._facets[0] = tuple(sorted(full & ~(1 << i) for i in range(n)))
    return fan


def derived_fan(source, ambient_dim, faces, images, apex=None):
    """The fan whose maximal cones lift faces of `source`, each cone's facet
    masks set here, derived from `source`'s: no double description.  `faces`
    lists pairs (k, tau), tau a face mask of maximal cone k of `source`
    (`enumerate(source.tops)` lifts every maximal cone whole).  A mask lifts
    to the images of its rays under each one-to-one function in `images`, plus
    `apex` if given.  Every face is an intersection of facets
    (Cox-Little-Schenck, §1.2), so the facets of the lift of tau are the
    maximal masks, other than the lift, among the lifts of the cuts tau & f
    (f a facet of cone k) and the images of tau under each function alone.
    Precondition: the lifts are distinct canonical cones that form a fan, and
    each facet of a lift is such a lift or image (as for a regularity subfan,
    a product level and a node level, which lifts regular faces directly)."""
    rays, lifts = source.all_rays, []
    for k, tau in faces:
        idx = bit_indices(tau)
        each = [[img(rays[u]) for u in idx] for img in images]  # per function: the images of tau's rays
        lifts.append((tuple(sorted(set(sum(each, [] if apex is None else [apex])))), k, idx, each))
    lifts.sort()  # the order of the fan's maximal cones: distinct lifts never tie
    fan = Fan(ambient_dim, [Cone(ambient_dim, gens) for gens, *_ in lifts])
    bit, tops = fan.bit, fan.tops
    base = 0 if apex is None else bit[apex]
    for j, (_, k, idx, each) in enumerate(lifts):
        each = [list(map(bit.get, imgs)) for imgs in each]
        lift = [functools.reduce(operator.or_, bits) for bits in zip(*each)]
        candidates = [sum([b for u, b in zip(idx, lift) if f >> u & 1], base) for f in source.facet_masks(k)]
        candidates += map(sum, each)
        fan._facets[j] = tuple(sorted(maximal_masks([c for c in candidates if c != tops[j]])))
    return fan


def projective_fan(n):
    """Complete fan of projective n-space; rays e_1..e_n and -(e_1+...+e_n)."""
    check_count(n, "n")
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
    """Validation report for a fan: a list of {"kind", "detail"} violations,
    as every check writes them; an empty list means valid.

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
    bit = fan.bit
    cones, tables, faces, facets = [], [], [], []
    for c, top in zip(fan.maximal_cones, fan.tops):
        before, seen = len(violations), set()
        for g in c.generators:
            if is_zero(g):
                violations.append({"kind": "non-primitive ray",
                                   "detail": f"zero generator in cone {list(c.generators)}"})
                continue
            if content(g) != 1:
                violations.append({"kind": "non-primitive ray", "detail": f"ray {list(g)} has content {content(g)}"})
            if g in seen:
                violations.append({"kind": "duplicate ray", "detail": f"ray {list(g)} listed twice in a cone"})
            seen.add(g)
        if len(violations) > before:
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
            violations.append({"kind": "not strongly convex", "detail": f"cone {list(c.generators)} contains a line"})
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
                violations.append({"kind": "intersection not a face", "detail": (
                    f"cones {list(cones[i].generators)} and {list(cones[j].generators)} "
                    f"meet in {list(inter.generators)} which is not a common face")})
    return violations
