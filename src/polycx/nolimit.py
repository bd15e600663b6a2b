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


def _block_equations(D, w, variables, shear):
    """Rows of the compatibility system within one weight block."""
    pos = {v: t for t, v in enumerate(variables)}
    rows = []
    for i in range(w + 1):
        j = w - i
        # both charts restrict to the same plane z=0 polynomial
        if i + j <= D:
            row = [0] * len(variables)
            row[pos[("c", i, j, 0)]] += 1
            row[pos[("d", i, j, 0)]] -= 1
            rows.append(row)
        # coefficient of x^i z^j of the pullback along the parabola chart
        row = [0] * len(variables)
        nonzero = False
        for k in range(j // 2 + 1):
            v = ("c", i, j - 2 * k, k)
            if v in pos:
                row[pos[v]] += 1
                nonzero = True
        if shear:
            # (x,z) -> (x+z, z, z^2): binomial spread over the first slot
            for p in range(i, w + 1):
                for r in range((j - (p - i)) // 2 + 1) if p - i <= j else ():
                    q = j - (p - i) - 2 * r
                    v = ("d", p, q, r)
                    if v in pos:
                        row[pos[v]] -= comb(p, i)
                        nonzero = True
        else:
            # control: (x,z) -> (x, z, z^2), no shear
            for k in range(j // 2 + 1):
                v = ("d", i, j - 2 * k, k)
                if v in pos:
                    row[pos[v]] -= 1
                    nonzero = True
        if nonzero:
            rows.append(row)
    return rows


def no_limit_witness(max_degree, shear=True):
    """Restriction-image dimension of the compatibility system, plus the
    two derived coefficient identity families, checked on a kernel basis."""
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
        rows = _block_equations(D, w, variables, shear)
        kernel = linalg.annihilator(rows, len(variables))
        axis_var = ("c", w, 0, 0) if w <= D else None
        if axis_var is not None:
            contributes = any(v[pos[axis_var]] != 0 for v in kernel)
            axis_coefficient_dims.append((w, 1 if contributes else 0))
            if contributes:
                image_dim += 1
        for v in kernel:
            def coeff(tag, i, j, k):
                key = (tag, i, j, k)
                return v[pos[key]] if key in pos else 0

            # b(i, j): pullback along (x,z) -> (x,z,z^2) of the first chart
            b = [[sum(coeff("c", i, j - 2 * k, k) for k in range(j // 2 + 1))
                  for j in (0, 1)] for i in range(w + 2)]
            for i in range(w + 1):
                # a(i,0) = b(i,0) and a(i,1) = b(i,1), with a read off the
                # second chart's plane, a(i,j) = d(i,j,0)
                if coeff("d", i, 0, 0) != b[i][0] or coeff("d", i, 1, 0) != b[i][1]:
                    identities_3 = False
                # a(i,1) = b(i,1) - (i+1) b(i+1,0)
                if shear and coeff("c", i, 1, 0) != b[i][1] - (i + 1) * b[i + 1][0]:
                    identities_4 = False
    return {
        "max_degree": D,
        "shear": bool(shear),
        "restriction_image_dim": image_dim,
        "axis_blocks": axis_coefficient_dims,
        "identities_3": identities_3,
        "identities_4": identities_4 if shear else None,
    }
