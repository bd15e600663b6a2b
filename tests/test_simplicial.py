import pytest
from hypothesis import given, settings, strategies as st

from polycx import SimplicialComplex, format_scx, parse_scx
from polycx.groups import format_grp, fundamental_group
from polycx.homology import ChainComplex
from polycx.moves import DualComplexMove, cone_over_star, dual_move, stellar_subdivide
from polycx.simplicial import label_key

import oracles
from oracles import simplex_key

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


# -- the order a complex owns ----------------------------------------------------

MIXED = st.integers(0, 6) | st.sampled_from(["a", "b", "x", "b(0,1)", "c(a)"])


@st.composite
def moved_complexes(draw):
    """A complex on mixed int and str labels and, when it has a simplex
    and the new label is free, the complex a barycentric or cone move at
    one of them returns."""
    K = SimplicialComplex(draw(st.lists(st.sets(MIXED, min_size=1, max_size=4), max_size=6)),
                          vertices=draw(st.lists(MIXED, max_size=2)))
    if not len(K):
        return [K]
    target = draw(st.sampled_from(K.simplices()))
    kind = draw(st.sampled_from(["barycentric", "cone-over-star"]))
    try:
        return [K, dual_move(K, DualComplexMove(kind, tuple(target)))]
    except ValueError:  # the barycenter or apex label is a vertex already
        return [K]


@settings(max_examples=150, deadline=None)
@given(moved_complexes())
def test_the_order_equals_the_label_key_sorts(complexes):
    for K in complexes:
        raw = set(K)
        verts = {v for s in raw for v in s}
        assert K.vertices == sorted(verts, key=label_key)
        assert K.simplices() == sorted(raw, key=simplex_key)
        assert K.maximal_simplices() == pairwise_maximal(K)
        for k in range(-1, K.dim() + 2):
            by_key = sorted((s for s in raw if len(s) == k + 1), key=simplex_key)
            assert K.simplices(k) == by_key
            assert K.ordered(k) == [tuple(sorted(s, key=label_key)) for s in by_key]
        assert ChainComplex.of_complex(K).boundaries == oracles.boundary_matrices(raw)
        if verts and K.is_connected():
            assert format_grp(fundamental_group(K)) == oracles.edge_path_group(raw, verts)
        else:
            with pytest.raises(ValueError):
                fundamental_group(K)


def test_returned_lists_leave_the_order_alone():
    K = SimplicialComplex([(1, 2, "a"), (2, 3), ("a", "b")], vertices=["z", 0])
    twin = SimplicialComplex(list(K), vertices=K.vertices)
    h = hash(K)
    assert K == twin and "_order" not in vars(K)
    reads = {
        "vertices": lambda: K.vertices,
        "simplices(1)": lambda: K.simplices(1),
        "maximal_simplices()": K.maximal_simplices,
        "ordered(1)": lambda: K.ordered(1),
        "ordered(2)": lambda: K.ordered(2),
    }
    first = {name: list(read()) for name, read in reads.items()}
    for read in reads.values():
        out = read()
        out.reverse()
        out.append(frozenset(["junk"]))
        out[0] = ("junk",)
    assert {name: read() for name, read in reads.items()} == first
    assert K.simplices() == sorted(K, key=simplex_key)
    assert "_order" in vars(K) and "_order" not in vars(twin)
    assert hash(K) == h == hash(twin) and K == twin and twin == K
