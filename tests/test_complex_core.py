import json
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    VertexMap,
    apply_map,
    barycentric_oracle,
    derived_neighborhood,
    link_iso_sd,
    link_iso_sd2,
    star_intersection_sd2,
)
from test_engine_kernel import CATALOG
from test_morse_properties import complexes

from morseshell.complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    _sorted_by_key,
    barycentric,
    barycentric_complex,
    boundary_complex,
    closure_complex,
    empty_complex,
    join,
    join_complexes,
    link_complex,
    make_complex,
    star_complex,
    star_link,
    void_complex,
)
from morseshell.labels import atom, bary
from morseshell.serial import (
    dump_complex_json,
    dump_complex_text,
    label_from_json,
    label_to_json,
    load_complex,
    load_complex_json,
)

a, b, c, d, v, w = (atom(x) for x in "abcdvw")


def s(*labels):
    return Simplex(labels)


def triangle():
    return make_complex([[a, b, c]])


def circle():
    return make_complex([[a, b], [b, c], [a, c]])


# -- construction -------------------------------------------------------------


def test_make_complex_closure_of_triangle():
    k = triangle()
    assert len(k.facets) == 1
    assert len([f for f in k.faces() if f.dim == 1]) == 3
    assert len([f for f in k.faces() if f.dim == 0]) == 3
    assert EMPTY in k.faces()


def test_make_complex_circle():
    k = circle()
    assert len(k.facets) == 3
    assert len(k.vertices()) == 3
    assert k.euler() == 0


def test_make_complex_absorbs_redundant_facets():
    k = make_complex([[a, b, c], [a, b]])
    assert k.facets == (s(a, b, c),)


def _pairwise_facets(facets):
    """The facets kept by the pairwise rule: key order, every facet inside
    another one dropped."""
    fs = sorted(set(facets), key=lambda f: f.key)
    return tuple(f for f in fs if not any(f < g for g in fs))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(complexes(), st.randoms(use_true_random=False))
def test_rank_keyed_facets_match_the_key_order_and_pairwise_absorption(k, rng):
    """Facets sorted on label ranks are in ``Simplex.key`` order on random
    complexes and their sd and sd², so atom and nested labels both sort;
    the indexed absorption keeps what the pairwise rule keeps, for the
    facets plus a sample of their faces, the empty face included."""
    for depth in range(3):
        if depth:
            k = barycentric_complex(k)
        assert k.facets == tuple(sorted(k.facets, key=lambda f: f.key))
        if depth < 2:
            faces = sorted(k.faces(), key=lambda f: f.key)
            given_facets = list(k.facets) + rng.sample(faces, min(len(faces), 40))
            rng.shuffle(given_facets)
            assert SimplicialComplex(given_facets).facets == _pairwise_facets(given_facets)


def test_absorption_of_the_empty_facet():
    assert SimplicialComplex([EMPTY]).facets == (EMPTY,)
    assert SimplicialComplex([EMPTY, s(a)]).facets == (s(a),)
    assert SimplicialComplex([s(b), EMPTY, s(a, b), s(c)]).facets == (s(c), s(a, b))


def test_make_complex_rejects_empty_facet():
    with pytest.raises(ValueError):
        make_complex([[]])


def test_labels_are_interned_so_equal_structure_is_identity():
    """bary of one member set is one object, whatever the order or repeats
    of its members, and so is a label read back from its JSON form."""
    inner = bary([a, b])
    lab = bary([inner, c])
    assert bary([b, a]) is inner and bary([a, b, a]) is inner
    assert bary([c, bary([b, a, b])]) is lab and bary([c, inner, c]) is lab
    assert atom("a") is a
    assert label_from_json(label_to_json(lab)) is lab
    assert label_from_json([["b", "a"], "c", "c"]) is lab
    assert label_from_json("a") is a


# -- the trusted face kernel ----------------------------------------------------


def assert_canonical(x):
    """x agrees with the validating constructor fed its labels in reverse."""
    y = Simplex(list(reversed(x.vertices)))
    assert x.vertices == y.vertices
    assert x == y and hash(x) == hash(y)


def test_derived_simplices_match_validating_constructor_on_sd2_labels():
    """faces, without, minus and union of sd²-flags, whose nested barycenters
    sort by key, build the same simplices as Simplex(...) does."""
    sd2 = barycentric_complex(barycentric_complex(make_complex([[a, b, c, d]])))
    assert len(sd2.facets) == 24 * 24
    for facet in sd2.facets:
        vs = facet.vertices
        got = list(facet.faces())
        brute = {
            Simplex(list(reversed(sub)))
            for r in range(len(vs) + 1)
            for sub in combinations(vs, r)
        }
        assert len(got) == len(brute) == 2 ** len(vs) and set(got) == brute
        for face in got:
            assert_canonical(face)
            rest = facet.minus(face)
            assert_canonical(rest)
            assert set(rest.vertices) == set(vs) - set(face.vertices)
            assert_canonical(face.union(rest))
            assert face.union(rest) == facet
        for x in vs:
            assert_canonical(facet.without(x))
            assert facet.without(x) == Simplex([y for y in vs if y != x])


# -- joins --------------------------------------------------------------------


def test_join_of_two_points_is_an_edge():
    e = join(RelativeComplex(make_complex([[v]])), RelativeComplex(make_complex([[w]])))
    assert e.ambient.facets == (s(v, w),)
    assert e.missing.is_void


def test_join_open_point_with_point_by_hand():
    # expand the defining formula by hand: ambient {v,w}; missing part is
    # ({∅} * closure(w)) ∪ (closure(v) * void) = {∅, w}
    vdot = RelativeComplex(make_complex([[v]]), empty_complex())
    closed_w = RelativeComplex(make_complex([[w]]))
    out = join(vdot, closed_w)
    assert out.ambient.facets == (s(v, w),)
    assert out.missing.faces() == {EMPTY, s(w)}
    assert out.faces() == {s(v), s(v, w)}


def test_join_with_void_complex_is_identity():
    x = RelativeComplex(triangle())
    assert join(x, RelativeComplex(void_complex())) == x
    assert join(RelativeComplex(void_complex()), x) == x


def test_join_commutes_up_to_relabeling():
    s1 = RelativeComplex(make_complex([[a, b]]), make_complex([[a]]))
    s2 = RelativeComplex(make_complex([[v, w]]))
    left = join(s1, s2)
    right = join(s2, s1)
    assert len(left.faces()) == len(right.faces())
    assert left.ambient.f_vector() == right.ambient.f_vector()


def test_join_rejects_shared_labels():
    with pytest.raises(ValueError):
        join(RelativeComplex(make_complex([[a]])), RelativeComplex(make_complex([[a, b]])))


# -- barycentric subdivision ---------------------------------------------------


def test_sd_of_edge_is_a_path():
    k = barycentric_complex(make_complex([[a, b]]))
    assert len(k.facets) == 2
    assert len(k.vertices()) == 3


def test_sd_facet_counts_match_permutation_oracle():
    # maximal flags of a d-simplex correspond to vertex orderings
    oracle = len(list(permutations(range(3))))
    assert len(barycentric_complex(triangle()).facets) == oracle
    twice = barycentric_complex(barycentric_complex(triangle()))
    assert len(twice.facets) == oracle * oracle


@pytest.mark.parametrize("name", sorted(CATALOG) + ["empty", "void"])
def test_flag_template_gives_the_sort_rule_facets_on_the_catalog_and_its_sd(name):
    """Each flag of ``_flag_template`` is already in the key order of its
    barycenters: sd and sd² have the sort rule's facets, in its order."""
    k = {"empty": empty_complex(), "void": void_complex()}.get(name) or CATALOG[name]
    sd = barycentric_complex(k)
    assert sd.facets == barycentric_oracle(k).facets
    assert barycentric_complex(sd).facets == barycentric_oracle(sd).facets


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(complexes())
def test_flag_template_gives_the_sort_rule_facets_on_random_complexes(k):
    """Also: ``_sorted_by_key`` is the ``Simplex.key`` order on the faces
    of a complex whose facets differ in size, and of its sd."""
    sd = barycentric_complex(k)
    assert sd.facets == barycentric_oracle(k).facets
    assert barycentric_complex(sd).facets == barycentric_oracle(sd).facets
    for c in (k, sd):
        faces = list(c.faces())
        assert _sorted_by_key(faces) == sorted(faces, key=lambda s: s.key)


def test_sd_of_equal_complexes_is_equal_and_kept_per_object():
    one, two = triangle(), triangle()
    assert one == two and one is not two
    sd_one = barycentric_complex(one)
    assert barycentric_complex(two) == sd_one
    assert barycentric_complex(one) is sd_one
    assert barycentric_complex(barycentric_complex(two)) == barycentric_complex(sd_one)


def _fubini(n, _cache={0: 1}):
    # ordered set partitions: number of flags topped by an n-set
    if n not in _cache:
        _cache[n] = sum(comb(n, k) * _fubini(n - k) for k in range(1, n + 1))
    return _cache[n]


@pytest.mark.parametrize(
    "complex_builder",
    [triangle, circle, lambda: make_complex([[a, b, c], [c, d, v]])],
)
def test_sd_face_count_equals_fubini_sum(complex_builder):
    k = complex_builder()
    sd = barycentric_complex(k)
    expected = sum(_fubini(len(f)) for f in k.faces() if not f.is_empty)
    assert len([f for f in sd.faces() if not f.is_empty]) == expected


def test_sd_of_relative_complex_subtracts_sd_of_missing():
    rel = RelativeComplex(triangle(), boundary_complex(s(a, b, c)))
    sd = barycentric(rel)
    assert not sd.has_empty_face
    # interior faces: everything through the center barycenter plus nothing else
    center = bary([a, b, c])
    assert all(center in f for f in sd.faces())


# -- stars and links -----------------------------------------------------------


def test_link_of_vertex_in_circle_is_two_points():
    st, lk = star_link(RelativeComplex(circle()), s(a))
    assert lk.ambient.facets == (s(b), s(c))
    assert lk.missing.is_void
    assert st.ambient.facets == (s(a, b), s(a, c))


def test_link_in_open_simplex_is_open_opposite_face():
    # the link of a vertex in an open simplex is the open opposite face
    theta = s(a, b, c)
    open_theta = RelativeComplex(closure_complex(theta), boundary_complex(theta))
    _, lk = star_link(open_theta, s(a))
    assert lk.ambient.facets == (s(b, c),)
    assert lk.faces() == {s(b, c)}


def test_link_detects_missing_opposite_vertex():
    # simplex minus one vertex: the link of that vertex is the dotted
    # opposite face
    theta = s(a, b, c)
    t = RelativeComplex(closure_complex(theta), closure_complex(s(a)))
    st, lk = star_link(t, s(a))
    assert lk.ambient.facets == (s(b, c),)
    assert lk.missing.faces() == {EMPTY}
    assert st.faces() == t.faces()


def test_star_link_rejects_faces_outside_ambient():
    with pytest.raises(ValueError):
        star_link(RelativeComplex(circle()), s(a, b, c))


# -- derived neighborhoods ------------------------------------------------------


def _union_of_closed_stars(l, k):
    # independent oracle: union of the closed stars of the vertices of l
    sd = barycentric_complex(k)
    out = set()
    for vert in l.vertices():
        out |= star_complex(sd, Simplex([bary([vert])])).faces()
    return out


def test_derived_neighborhood_of_vertex_in_edge():
    k = make_complex([[v, w]])
    l = make_complex([[v]])
    n = derived_neighborhood(l, k)
    assert n.facets == (Simplex([bary([v]), bary([v, w])]),)


def test_derived_neighborhood_of_whole_complex_is_whole_sd():
    k = circle()
    assert derived_neighborhood(k, k).faces() == barycentric_complex(k).faces()


def test_derived_neighborhood_of_boundary_in_triangle():
    k = triangle()
    l = boundary_complex(s(a, b, c))
    n = derived_neighborhood(l, k)
    assert n.faces() == _union_of_closed_stars(l, k)
    # the boundary vertices already see every maximal flag of the triangle
    assert n.faces() == barycentric_complex(k).faces()


def test_derived_neighborhood_contains_sd_of_subcomplex():
    k = make_complex([[a, b, c], [c, d]])
    l = make_complex([[a, b], [c]])
    n = derived_neighborhood(l, k)
    sd_l = barycentric_complex(l)
    sd_k = barycentric_complex(k)
    assert sd_l.faces() <= n.faces()
    assert n.faces() <= sd_k.faces()
    assert n.faces() == _union_of_closed_stars(l, k)


def test_derived_neighborhood_requires_subcomplex():
    with pytest.raises(ValueError):
        derived_neighborhood(make_complex([[a, d]]), triangle())


# -- link isomorphisms ----------------------------------------------------------


def _image_faces(m, domain):
    return {m.on_simplex(f) for f in domain.faces()}


def test_link_iso_sd_for_a_facet_is_identity_on_boundary_flags():
    k = triangle()
    m = link_iso_sd(k, s(a, b, c))
    dom = barycentric_complex(boundary_complex(s(a, b, c)))
    sd_k = barycentric_complex(k)
    lk_hat = link_complex(sd_k, Simplex([bary([a, b, c])]))
    assert _image_faces(m, dom) == lk_hat.faces()
    for vert in dom.vertices():
        assert m[vert] == vert


def test_link_iso_sd_vertex_of_circle_hits_edge_barycenters():
    k = circle()
    m = link_iso_sd(k, s(a))
    # by hand: the link of a in the circle is {b, c}, so the model complex is
    # two points whose images are the barycenters of ab and ac
    assert m[bary([b])] == bary([a, b])
    assert m[bary([c])] == bary([a, c])
    sd_k = barycentric_complex(k)
    lk_hat = link_complex(sd_k, Simplex([bary([a])]))
    assert set(m.mapping.values()) == set(lk_hat.vertices())


def test_link_iso_sd_edge_of_triangle_is_vertex_bijection():
    k = triangle()
    m = link_iso_sd(k, s(a, b))
    sd_k = barycentric_complex(k)
    lk_hat = link_complex(sd_k, Simplex([bary([a, b])]))
    assert len(lk_hat.vertices()) == 3
    assert set(m.mapping.values()) == set(lk_hat.vertices())
    dom = join_complexes(
        barycentric_complex(boundary_complex(s(a, b))),
        barycentric_complex(link_complex(k, s(a, b))),
    )
    assert _image_faces(m, dom) == lk_hat.faces()


@pytest.mark.parametrize("sigma", [s(a), s(a, b), s(a, b, c)])
def test_link_iso_sd_is_a_face_bijection(sigma):
    k = make_complex([[a, b, c], [b, c, d]])
    m = link_iso_sd(k, sigma)
    dom = join_complexes(
        barycentric_complex(boundary_complex(sigma)),
        barycentric_complex(link_complex(k, sigma)),
    )
    sd_k = barycentric_complex(k)
    lk_hat = link_complex(sd_k, Simplex([bary(sigma.vertices)]))
    assert _image_faces(m, dom) == lk_hat.faces()


@pytest.mark.parametrize("sigma", [s(a), s(a, b), s(a, b, c)])
def test_link_iso_sd2_is_a_face_bijection(sigma):
    k = make_complex([[a, b, c], [b, c, d]])
    m = link_iso_sd2(k, sigma)
    dom = barycentric_complex(
        join_complexes(
            barycentric_complex(boundary_complex(sigma)),
            barycentric_complex(link_complex(k, sigma)),
        )
    )
    sd2 = barycentric_complex(barycentric_complex(k))
    lk_hat = link_complex(sd2, Simplex([bary([bary(sigma.vertices)])]))
    assert _image_faces(m, dom) == lk_hat.faces()


def test_link_iso_sd2_vertex_of_lone_edge():
    k = make_complex([[v, w]])
    m = link_iso_sd2(k, s(v))
    sd2 = barycentric_complex(barycentric_complex(k))
    lk_hat = link_complex(sd2, Simplex([bary([bary([v])])]))
    dom = barycentric_complex(barycentric_complex(link_complex(k, s(v))))
    assert _image_faces(m, dom) == lk_hat.faces()


def test_double_star_intersection_empty_iff_comparable():
    k = triangle()
    faces = [f for f in k.faces() if not f.is_empty]
    for x in faces:
        for y in faces:
            if x == y:
                continue
            inter, _ = star_intersection_sd2(k, x, y)
            comparable = x < y or y < x
            assert (not inter.is_void) == comparable


def test_double_star_intersection_matches_model():
    k = make_complex([[v, w]])
    sigma, tau = s(v), s(v, w)
    inter, model = star_intersection_sd2(k, sigma, tau)
    m = link_iso_sd2(k, sigma)
    image = {m.on_simplex(f) for f in model.faces() if not f.is_empty}
    assert image == {f for f in inter.faces() if not f.is_empty}


# -- vertex maps -----------------------------------------------------------------


def test_apply_identity_map():
    k = circle()
    m = VertexMap({x: x for x in k.vertices()})
    assert apply_map(k, m) == k


def test_apply_swap_map_gives_isomorphic_complex():
    k = make_complex([[a, b]])
    m = VertexMap({a: b, b: a})
    out = apply_map(k, m)
    assert out == k


def test_vertex_map_requires_injectivity():
    with pytest.raises(ValueError):
        VertexMap({a: c, b: c})


def test_vertex_map_rejects_labels_outside_domain():
    m = VertexMap({a: b})
    with pytest.raises(KeyError):
        m[c]


# -- serialization ----------------------------------------------------------------


def test_text_round_trip():
    text = "# demo\na b c\nc d\n"
    rel = load_complex(text)
    # facets come back in canonical order: by size, then lexicographically
    assert dump_complex_text(rel) == "c d\na b c\n"
    assert load_complex(dump_complex_text(rel)) == rel


def test_json_round_trip_with_missing_part():
    rel = RelativeComplex(triangle(), make_complex([[a, b]]))
    text = dump_complex_json(rel)
    again = load_complex_json(text)
    assert again == rel


def test_json_round_trip_of_subdivided_complex():
    rel = barycentric(RelativeComplex(circle()))
    text = dump_complex_json(rel)
    assert load_complex(text) == rel
