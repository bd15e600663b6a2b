import pytest
from hypothesis import given, settings, strategies as st

from polycx import SimplicialComplex, format_scx, parse_scx
from polycx.moves import cone_over_star, stellar_subdivide
from polycx.simplicial import simplex_key

from _corpus import circle, sphere2, torus, projective_plane


def test_subset_closure():
    K = SimplicialComplex([(1, 2, 3)])
    assert frozenset({1, 2}) in K
    assert frozenset({3}) in K
    assert K.f_vector() == (3, 3, 1)


def test_isolated_vertices_kept():
    K = SimplicialComplex([(1, 2)], vertices=[1, 2, 9])
    assert 9 in K.vertices
    assert not K.is_connected()


def test_euler_characteristic():
    assert sphere2().euler_characteristic() == 2
    assert torus().euler_characteristic() == 0
    assert projective_plane().euler_characteristic() == 1
    assert circle(5).euler_characteristic() == 0


def test_star_and_link():
    K = sphere2()
    lk = K.link(frozenset({0}))
    # link of a vertex in the 2-sphere boundary is a triangle circle
    assert lk.f_vector() == (3, 3)


def test_mixed_label_types():
    K = SimplicialComplex([(1, "b(1,2)"), ("b(1,2)", 2)])
    assert len(K.vertices) == 3
    assert K.is_connected()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_scx_round_trip(simplices):
    K = SimplicialComplex(simplices)
    assert parse_scx(format_scx(K)) == K


def test_scx_bad_header():
    with pytest.raises(ValueError):
        parse_scx('{"schema_version":"SCX/0","vertex_count":0,'
                  '"labels":[],"maximal_simplices":[]}')


def pairwise_maximal(K):
    """The maximal simplices by definition: those in no larger simplex."""
    return sorted((s for s in K if not any(s < t for t in K)), key=simplex_key)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4), max_size=6),
       st.lists(st.integers(0, 9) | st.sampled_from("ab"), max_size=3),
       st.randoms(use_true_random=False))
def test_maximal_simplices_match_pairwise_definition(simplices, isolated, rng):
    K = SimplicialComplex(simplices, vertices=isolated)
    assert K.maximal_simplices() == pairwise_maximal(K)
    if not K.dim() > 0:
        return
    # closed complexes built by the moves and by removing a maximal simplex
    top = rng.choice([s for s in K.maximal_simplices() if len(s) > 1])
    for L in (stellar_subdivide(K, top), cone_over_star(K, top),
              SimplicialComplex._of_closed(set(K) - {top}, K.vertices)):
        assert L.maximal_simplices() == pairwise_maximal(L)
