"""Test-only reference implementations of the face kernels.

These are the geometric versions that the ray-bitmask kernels in
`torictower.lattice` and `torictower.toric` replaced: faces as frozensets of
generator indices built from `dot` tests, face membership through
`Cone.contains`, and maximal regular faces pruned by pairwise geometric
containment.  They are slow and independent of the bitmask code, so the
property tests compare the two.  `unimodular` draws the changes of
coordinates for the metamorphic tests.
"""

from hypothesis import strategies as st

from torictower.lattice import Cone, Fan, LatticeError, dot, identity_matrix


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
