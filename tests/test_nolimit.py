from fractions import Fraction

import pytest

from polycx import linalg, no_limit_witness
from polycx.nolimit import _block_equations, _block_variables

import oracles


NULLSPACE = linalg.nullspace
ANNIHILATOR = linalg.annihilator


def blocks(degree, shear, nullspace):
    """(weight, variables, kernel) of every weight block, the kernel by
    `nullspace`, as `no_limit_witness` builds them."""
    out = []
    for w in range(2 * degree + 1):
        variables = _block_variables(degree, w)
        rows = _block_equations(variables, shear)
        assert variables and rows
        out.append((w, variables, nullspace(rows)))
    return out


def spiked(rows):
    """The kernel of `rows` and one more rational vector, nonzero in
    every coordinate."""
    return NULLSPACE(rows) + [tuple(Fraction(t + 1, 3) for t in range(len(rows[0])))]


def int_spiked(rows, ncols):
    """The integer kernel of `rows` and the stray vector of `spiked` times 3."""
    return ANNIHILATOR(rows, ncols) + [tuple(t + 1 for t in range(ncols))]


def test_only_constants_restrict():
    for d in range(1, 7):
        report = no_limit_witness(d)
        assert report["restriction_image_dim"] == 1


def test_coefficient_identities_hold_on_kernel():
    report = no_limit_witness(5)
    assert report["identities_3"]
    assert report["identities_4"]


def test_axis_blocks_only_constant_survives():
    report = no_limit_witness(4)
    # weight-0 block (the constants) contributes; no higher block does
    assert report["axis_blocks"][0] == (0, 1)
    assert all(c == 0 for w, c in report["axis_blocks"][1:])


def test_shear_is_what_kills_the_limit():
    report = no_limit_witness(4, shear=False)
    assert report["restriction_image_dim"] == 5  # all powers of x survive
    assert report["identities_4"] is None


@pytest.mark.parametrize("shear", [True, False], ids=["shear", "control"])
@pytest.mark.parametrize("degree", range(1, 10))
def test_scattered_rows_match_the_gathered_rows(degree, shear):
    for w in range(2 * degree + 1):
        variables = _block_variables(degree, w)
        assert sorted(map(tuple, _block_equations(variables, shear))) == sorted(
            map(tuple, oracles.no_limit_rows(degree, w, variables, shear)))


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        no_limit_witness(0)


@pytest.mark.parametrize("shear", [True, False], ids=["shear", "control"])
@pytest.mark.parametrize("degree", range(1, 9))
def test_identities_match_fraction_oracle(degree, shear, monkeypatch):
    report = no_limit_witness(degree, shear=shear)
    assert (report["identities_3"], report["identities_4"]) == oracles.no_limit_identities(
        blocks(degree, shear, NULLSPACE), shear)
    # a kernel with a stray vector: integer scaling must not change the verdict
    want = oracles.no_limit_identities(blocks(degree, shear, spiked), shear)
    if shear:
        assert want[1] is False
    monkeypatch.setattr(linalg, "annihilator", int_spiked)
    report = no_limit_witness(degree, shear=shear)
    assert (report["identities_3"], report["identities_4"]) == want


@pytest.mark.parametrize("shear", [True, False], ids=["shear", "control"])
@pytest.mark.parametrize("degree", [1, 4])
def test_stray_kernel_vector_breaks_identities_3(degree, shear, monkeypatch):
    # the stray vector has c(i, j, 0) != d(i, j, 0), so the first chart's
    # pullback b(i, j) differs from the second chart's plane
    assert no_limit_witness(degree, shear=shear)["identities_3"] is True
    monkeypatch.setattr(linalg, "annihilator", int_spiked)
    assert no_limit_witness(degree, shear=shear)["identities_3"] is False
