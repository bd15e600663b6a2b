"""Exact oracle for the direct-limit obstruction.

Two affine planes are glued to two 3-space charts along the maps
(x,y) -> (x,y,0), (x,z) -> (x,z,z^2) into the first chart and
(x,y) -> (x,y,0), (x,z) -> (x+z,z,z^2) into the second.  A regular function
on a common target pulls back to polynomials sum a(i,j) x^i y^j and
sum b(i,j) x^i z^j whose coefficients satisfy an exact linear system in the
chart coefficients c(i,j,k), d(i,j,k).  This module builds that system up
to a degree cap and computes the dimension of the restriction of its
solution space to the x-axis: dimension 1 means only constants survive.

The system is graded by the weight w = i + j + 2k (z has weight 1 and the
third chart coordinate weight 2), so it splits into small independent
blocks, one per weight.
"""

from math import comb

from . import linalg


def _block_variables(D, w):
    """Variables of weight w: ('c'|'d', i, j, k) with i+j+2k = w, i+j+k <= D."""
    out = []
    for tag in ("c", "d"):
        for k in range(w // 2 + 1):
            rest = w - 2 * k
            for i in range(rest + 1):
                j = rest - i
                if i + j + k <= D:
                    out.append((tag, i, j, k))
    return out


def _block_equations(variables, shear):
    """Rows of the compatibility system within one weight block.  Each
    variable adds its coefficient to the equations it appears in: the plane
    row (i, j) for c(i, j, 0) and d(i, j, 0), where both charts restrict to
    the same plane z=0 polynomial, and the parabola row (i, j) of the
    x^i z^j coefficient of the pullback along (x,z) -> (x,z,z^2), where
    c(i, j, k) lands at z^(j+2k).  Under the shear (x,z) -> (x+z,z,z^2),
    d(p, q, r) spreads binomially over the parabola rows (s, p-s+q+2r)."""
    rows = {}
    for t, (tag, i, j, k) in enumerate(variables):
        sign = 1 if tag == "c" else -1
        terms = [(("plane", i, j), sign)] if k == 0 else []
        if shear and tag == "d":
            terms += [(("parabola", s, i - s + j + 2 * k), -comb(i, s)) for s in range(i + 1)]
        else:
            terms.append((("parabola", i, j + 2 * k), sign))
        for key, coefficient in terms:
            rows.setdefault(key, [0] * len(variables))[t] += coefficient
    return list(rows.values())


def no_limit_witness(max_degree, shear=True):
    """Restriction-image dimension of the compatibility system, plus the
    two derived coefficient identity families, checked on a kernel basis.

    The first chart pulls back along the parabola to b(i, j) =
    sum_k c(i, j-2k, k), and for j < 2 that sum has the one term c(i, j, 0).
    The second chart's plane gives a(i, j) = d(i, j, 0).  So on a kernel
    vector identity (3), a(i, j) = b(i, j) for j < 2, is two of its plane
    equations, and identity (4), c(i, 1, 0) = b(i, 1) - (i+1) b(i+1, 0), is
    (i+1) c(i+1, 0, 0) = 0."""
    D = int(max_degree)
    if D < 1:
        raise ValueError("max_degree must be >= 1")
    image_dim = 0
    identities_3 = True
    identities_4 = True
    axis_coefficient_dims = []
    for w in range(0, 2 * D + 1):
        variables = _block_variables(D, w)
        if not variables:
            continue
        pos = {v: t for t, v in enumerate(variables)}
        kernel = linalg.annihilator(_block_equations(variables, shear), len(variables))
        axis = pos.get(("c", w, 0, 0))
        if axis is not None:
            contributes = any(v[axis] != 0 for v in kernel)
            axis_coefficient_dims.append((w, 1 if contributes else 0))
            if contributes:
                image_dim += 1
        # (c(i, j, 0), d(i, j, 0)) for j < 2 with i + j = w
        plane = [(pos[("c", w - j, j, 0)], pos[("d", w - j, j, 0)])
                 for j in (0, 1) if ("c", w - j, j, 0) in pos]
        for v in kernel:
            if any(v[c] != v[d] for c, d in plane):
                identities_3 = False
            if shear and axis is not None and w * v[axis] != 0:
                identities_4 = False
    return {
        "max_degree": D,
        "shear": bool(shear),
        "restriction_image_dim": image_dim,
        "axis_blocks": axis_coefficient_dims,
        "identities_3": identities_3,
        "identities_4": identities_4 if shear else None,
    }
