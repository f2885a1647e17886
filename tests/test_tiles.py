import pytest

from oracles import (
    all_subcomplex_missing_sets,
    all_tiles_on,
    covered_faces,
    missing_closure,
    tile_to_json,
)

from morseshell.complexes import EMPTY, Simplex, barycentric_complex, make_complex, star_link
from morseshell.engine import CLOSED, DOTTED, OPEN, _entries, _slice
from morseshell.labels import atom
from morseshell.tiles import (
    CanonicalTriple,
    MorseTile,
    NotAMorseTileError,
    canonical_triple,
    classify,
    cone,
    make_tile,
    recompose,
    tile_join,
    tile_to_relative,
    vertex_tile,
)

LABELS = [atom(x) for x in "abcdefghij"]
a, b, c, d, e = LABELS[:5]


def s(*labels):
    return Simplex(labels)


def simplex_of_dim(n, offset=0):
    return Simplex(LABELS[offset : offset + n + 1])


# -- relabel --------------------------------------------------------------------


def test_relabel_reorders_by_the_images_and_rejects_a_bad_map_or_tile():
    tile = MorseTile(s(a, b, c, d), frozenset([s(b, c, d)]), s(a, b), s(a, b, c, d, e))
    flip = {a: e, b: d, c: c, d: b, e: a}
    moved = tile.relabel(flip.__getitem__)
    assert moved == MorseTile(s(e, d, c, b), frozenset([s(d, c, b)]), s(e, d), s(e, d, c, b, a))
    assert all(list(x.vertices) == sorted(x.vertices) for x in (moved.underlying, moved.anchor))
    with pytest.raises(ValueError, match="not injective"):
        tile.relabel({a: a, b: b, c: c, d: a, e: e}.__getitem__)
    with pytest.raises(ValueError, match="not a face"):
        MorseTile(s(a, b), frozenset([s(c)])).relabel(flip.__getitem__)


# -- classify -------------------------------------------------------------------


def test_classify_triangle_minus_one_ridge_is_regular_basic():
    t = classify(s(a, b, c), [s(a, b)])
    assert t.is_basic and t.order == 1
    assert not t.tile_class().is_critical


def test_classify_open_triangle_is_critical_of_top_index():
    t = classify(s(a, b, c), [s(a, b), s(b, c), s(a, c)])
    assert t.is_open
    assert t.tile_class().is_critical and t.tile_class().index == 2


def test_classify_dotted_triangle_is_critical_of_index_zero():
    t = classify(s(a, b, c), [EMPTY])
    assert not t.is_basic and t.morse_face == EMPTY
    assert t.tile_class().is_critical and t.tile_class().index == 0


def test_classify_rejects_two_incomparable_deep_faces():
    with pytest.raises(NotAMorseTileError):
        classify(s(a, b, c, d), [s(a, b), s(c, d)])


def test_dotted_vertex_equals_open_vertex():
    t = classify(s(a), [EMPTY])
    assert t == vertex_tile(a, open_=True)
    assert t.tile_class().is_critical and t.tile_class().index == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_classify_agrees_with_enumeration_oracle(dim):
    underlying = simplex_of_dim(dim)
    shapes = {}
    for tile in all_tiles_on(underlying):
        shapes.setdefault(missing_closure(tile), tile)
    for missing in all_subcomplex_missing_sets(underlying):
        generators = [f for f in missing if not any(f < g for g in missing)]
        if missing in shapes:
            got = classify(underlying, generators)
            expect = shapes[missing]
            assert got.missing_ridges == expect.missing_ridges
            assert got.morse_face == expect.morse_face
            assert got.tile_class() == expect.tile_class()
        else:
            with pytest.raises(NotAMorseTileError):
                classify(underlying, generators)


def test_classify_round_trips_every_tile_up_to_dim_4():
    for dim in range(5):
        underlying = simplex_of_dim(dim)
        for tile in all_tiles_on(underlying):
            got = classify(underlying, sorted(missing_closure(tile), key=lambda f: f.key))
            assert got.missing_ridges == tile.missing_ridges
            assert got.morse_face == tile.morse_face


# -- canonical triples ------------------------------------------------------------


def test_triple_of_closed_simplex():
    trip = canonical_triple(MorseTile(s(a, b, c), frozenset()))
    assert trip == CanonicalTriple(s(a, b, c), EMPTY, EMPTY)


def test_triple_of_open_simplex():
    t = classify(s(a, b, c), list(s(a, b, c).ridges()))
    assert canonical_triple(t) == CanonicalTriple(EMPTY, s(a, b, c), EMPTY)


def test_order_two_tile_with_face_equal_to_restriction_set_is_open():
    # triangle minus the ridges opposite a and b, further deprived of the
    # edge ab = restriction set: that face has codimension one, so the
    # missing set is simply all three ridges and the tile is open
    t = classify(s(a, b, c), [s(b, c), s(a, c), s(a, b)])
    assert t.is_open and t.is_basic
    trip = canonical_triple(t)
    assert trip == CanonicalTriple(EMPTY, s(a, b, c), EMPTY)
    assert t.tile_class().is_critical and t.tile_class().index == 2
    with pytest.raises(NotAMorseTileError):
        make_tile(s(a, b, c), [s(b, c), s(a, c)], s(a, b))


def test_triple_with_critical_face_on_tetrahedron():
    # order-two tile on a 3-simplex whose Morse face is the restriction set
    t = make_tile(s(a, b, c, d), [s(b, c, d), s(a, c, d)], s(a, b))
    trip = canonical_triple(t)
    assert trip == CanonicalTriple(EMPTY, s(a, b), s(c, d))
    assert t.tile_class().is_critical and t.tile_class().index == 2
    assert recompose(trip) == MorseTile(t.underlying, t.missing_ridges, t.morse_face)


def test_recompose_round_trips_every_tile_up_to_dim_4():
    for dim in range(5):
        for tile in all_tiles_on(simplex_of_dim(dim)):
            again = recompose(canonical_triple(tile))
            assert again.underlying == tile.underlying
            assert again.missing_ridges == tile.missing_ridges
            assert again.morse_face == tile.morse_face


# -- joins and cones ---------------------------------------------------------------


def test_join_of_closed_vertices_is_closed_edge():
    t = tile_join(vertex_tile(a), vertex_tile(b))
    assert t.is_closed and t.underlying == s(a, b)


def test_join_of_two_open_vertices_is_open_edge():
    # expand the missing-set formula by hand: missing = {∅,a} ∪ {∅,b}
    t = tile_join(vertex_tile(a, open_=True), vertex_tile(b, open_=True))
    assert t.order == 2
    assert missing_closure(t) == frozenset({EMPTY, s(a), s(b)})
    cls = t.tile_class()
    assert cls.is_critical and cls.index == 1


def test_join_closed_vertex_with_dotted_edge_is_regular_morse():
    dotted = classify(s(b, c), [EMPTY])
    t = tile_join(vertex_tile(a), dotted)
    assert not t.is_basic and t.order == 0
    assert t.morse_face == s(a)
    assert not t.tile_class().is_critical


def test_join_requires_basic_first_factor():
    dotted = classify(s(a, b), [EMPTY])
    with pytest.raises(ValueError):
        tile_join(dotted, vertex_tile(c))


def test_join_order_additivity_exhaustive_low_dim():
    for da in range(2):
        for db in range(2):
            left_simplex = simplex_of_dim(da)
            right_simplex = simplex_of_dim(db, offset=da + 1)
            for t in all_tiles_on(left_simplex):
                if not t.is_basic:
                    continue
                for tp in all_tiles_on(right_simplex):
                    joined = tile_join(t, tp)
                    assert joined.order == t.order + tp.order
                    assert joined.is_basic == tp.is_basic


def test_cone_over_closed_edge_is_closed_triangle():
    t = cone(c, MorseTile(s(a, b), frozenset()))
    assert t.is_closed and t.underlying == s(a, b, c)


def test_deprived_cone_over_open_edge_is_open_triangle():
    open_edge = classify(s(a, b), [s(a), s(b)])
    t = cone(c, open_edge, dotted=True)
    assert t.is_open
    assert t.tile_class().is_critical and t.tile_class().index == 2


def test_deprived_cone_over_closed_edge_is_regular():
    t = cone(c, MorseTile(s(a, b), frozenset()), dotted=True)
    assert not t.tile_class().is_critical


def test_cone_criticality_law_exhaustive_up_to_dim_3():
    apex = LABELS[9]
    for dim in range(4):
        for t in all_tiles_on(simplex_of_dim(dim)):
            closed_cone = cone(apex, t)
            assert closed_cone.is_closed == t.is_closed
            assert closed_cone.tile_class().is_critical == t.is_closed
            deprived = cone(apex, t, dotted=True)
            cls = t.tile_class()
            expect_critical = cls.is_critical and not t.is_closed
            got = deprived.tile_class()
            assert got.is_critical == expect_critical
            if expect_critical:
                assert got.index == cls.index + 1


# -- vertex links -------------------------------------------------------------------


def vertex_link(t, v):
    """The link of v in t by the engine's rule: ``_slice`` at v's entry,
    the rest regrouped into closed, open and dotted parts."""
    entries = _entries(t)
    j = next(i for i, (u, _) in enumerate(entries) if u is v)
    before, after = _slice(entries, j)
    rest = before + after
    sigma, theta, tau = (Simplex([u for u, r in rest if r == role]) for role in (CLOSED, OPEN, DOTTED))
    return recompose(CanonicalTriple(sigma, theta, tau))


def test_vertex_link_in_closed_part():
    # a tile sigma * theta-open * tau-dotted, linked at a sigma-vertex
    t = recompose(CanonicalTriple(s(a, b), s(c), s(d, e)))
    lk = vertex_link(t, a)
    assert canonical_triple(lk) == CanonicalTriple(s(b), s(c), s(d, e))


def test_vertex_link_in_open_part_of_dim_zero():
    t = recompose(CanonicalTriple(s(a, b), s(c), s(d, e)))
    lk = vertex_link(t, c)
    assert canonical_triple(lk) == CanonicalTriple(s(a, b), EMPTY, s(d, e))


def test_vertex_link_in_dotted_part_closes_the_rest():
    t = recompose(CanonicalTriple(s(a, b), s(c), s(d, e)))
    lk = vertex_link(t, d)
    assert canonical_triple(lk) == CanonicalTriple(s(a, b, e), s(c), EMPTY)


def test_vertex_link_agrees_with_star_link_up_to_dim_4():
    for dim in range(1, 5):
        for tile in all_tiles_on(simplex_of_dim(dim)):
            rel = tile_to_relative(tile)
            for vert in tile.underlying:
                _, lk = star_link(rel, Simplex([vert]))
                assert vertex_link(tile, vert).faces() == lk.faces()


# -- faces and Euler signatures --------------------------------------------------


def test_faces_of_closed_edge():
    assert MorseTile(s(a, b), frozenset()).faces() == {EMPTY, s(a), s(b), s(a, b)}


def test_faces_of_open_edge():
    t = classify(s(a, b), [s(a), s(b)])
    assert t.faces() == {s(a, b)}


def test_faces_of_dotted_edge():
    t = classify(s(a, b), [EMPTY])
    assert t.faces() == {s(a), s(b), s(a, b)}


def test_every_nonempty_face_contains_restriction_set():
    for dim in range(5):
        for tile in all_tiles_on(simplex_of_dim(dim)):
            r = tile.restriction_set()
            for f in tile.faces():
                if not f.is_empty:
                    assert r <= f


def test_euler_signature_up_to_dim_4():
    for dim in range(5):
        for tile in all_tiles_on(simplex_of_dim(dim)):
            cls = tile.tile_class()
            expect = (-1) ** cls.index if cls.is_critical else 0
            assert tile.euler_signature() == expect


def test_tile_json_round_trip():
    import json

    from morseshell.serial import tile_from_json

    for tile in all_tiles_on(s(a, b, c)):
        data = json.loads(json.dumps(tile_to_json(tile), sort_keys=True))
        assert tile_from_json(data) == tile


def sd2_labels(n):
    """n second-subdivision vertex labels, deliberately out of key order."""
    sd2 = barycentric_complex(barycentric_complex(make_complex([[a, b, c]])))
    labels = sorted(sd2.vertices(), key=lambda lab: lab.key)
    return labels[::-5][:n]


def test_tile_faces_match_brute_force_on_sd2_labels_up_to_dim_4():
    labels = sd2_labels(5)
    for dim in range(5):
        for tile in all_tiles_on(Simplex(labels[: dim + 1])):
            missing = tile.missing_faces()
            faces = tile.faces()
            assert missing == missing_closure(tile)
            assert faces == covered_faces([tile])
            for f in missing | faces:
                assert f.vertices == Simplex(list(reversed(f.vertices))).vertices


def test_faces_of_a_malformed_tile_follow_its_generators():
    """A generator that is not a ridge is still closed downward as given,
    so the verifier can reject the tile."""
    vertex_as_ridge = MorseTile(s(a, b, c), frozenset([s(a)]))
    assert vertex_as_ridge.missing_faces() == {EMPTY, s(a)}
    foreign_morse_face = MorseTile(s(a, b, c), frozenset(), s(d))
    assert foreign_morse_face.missing_faces() == {EMPTY, s(d)}
    t = MorseTile(s(a, b, c), frozenset([s(a), s(a, d)]))
    assert t.missing_faces() == {EMPTY, s(a), s(d), s(a, d)}
    assert t.faces() == {s(b), s(c), s(a, b), s(a, c), s(b, c), s(a, b, c)}
    with pytest.raises(NotAMorseTileError):
        classify(t.underlying, t.missing_faces())
