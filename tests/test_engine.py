from fractions import Fraction

import pytest

from oracles import apply_map, link_iso_sd, link_iso_sd2, link_model_sd, relabel, vertex_tile

from morseshell.catalog import (
    boundary_sphere,
    cone_over_circle,
    moebius_torus,
    simplex_complex,
    two_triangles,
)
from morseshell.complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    barycentric,
    barycentric_complex,
    boundary_complex,
    join_complexes,
    link_complex,
    make_complex,
    star_complex,
    void_complex,
)
from morseshell.engine import (
    Tiling,
    _cone_block,
    _row,
    _sd2_transport,
    shell_boundary_sd,
    shell_sd2_from_dmf,
    shell_sd_join,
    shell_sd_relative,
    shell_sd_tile,
)
from morseshell.labels import atom, bary
from morseshell.morse import DiscreteMorseFunction, dmf_from_matching, greedy_collapse_dmf, trivial_dmf
from morseshell.serial import tiling_to_lines
from morseshell.tiles import MorseTile, classify, tile_join
from morseshell.verify import audit, critical_census, verify_tiling

a, b, c, d, v, w = (atom(x) for x in "abcdvw")


def s(*labels):
    return Simplex(labels)


def covered(tiles):
    out = set()
    for t in tiles:
        out |= t.faces()
    return out


def star_faces(space, vertex_label):
    """Faces of the closed star of a barycenter inside a relative complex."""
    hat = Simplex([vertex_label])
    return star_complex(space.ambient, hat).faces() & space.faces()


# -- join shellings: base cases ------------------------------------------------


def test_join_shelling_two_closed_points():
    t, prefix = shell_sd_join(vertex_tile(v), vertex_tile(w))
    assert len(t.tiles) == 2 and prefix == 1
    assert t.tiles[0].is_closed
    cert = verify_tiling(t.space, t)
    assert cert.ok
    assert critical_census(t).critical == {0: 1}


def test_join_shelling_open_point_closed_point():
    # one dotted tile inside the star segment, one open edge outside
    t, prefix = shell_sd_join(vertex_tile(v, open_=True), vertex_tile(w))
    assert prefix == 1
    first, second = t.tiles
    assert first.morse_face == EMPTY and first.tile_class().index == 0
    assert second.is_open and second.tile_class().index == 1
    assert verify_tiling(t.space, t).ok


def test_join_shelling_closed_point_open_point_has_no_critical_tile():
    t, prefix = shell_sd_join(vertex_tile(v), vertex_tile(w, open_=True))
    assert verify_tiling(t.space, t).ok
    assert critical_census(t).critical == {}


def test_join_shelling_point_with_dotted_edge():
    # smallest pair with a non-basic second factor: no critical tiles at all
    dotted = classify(s(a, b), [EMPTY])
    t, prefix = shell_sd_join(vertex_tile(v), dotted)
    cert = verify_tiling(t.space, t)
    assert cert.ok
    assert critical_census(t).critical == {}
    segment = covered(t.tiles[:prefix])
    assert segment == star_faces(t.space, bary([v]))


def test_join_shelling_open_point_with_dotted_edge():
    # unique critical tile of index one, outside the star segment
    dotted = classify(s(a, b), [EMPTY])
    t, prefix = shell_sd_join(vertex_tile(v, open_=True), dotted)
    assert verify_tiling(t.space, t).ok
    crits = [
        (i, tile.tile_class().index)
        for i, tile in enumerate(t.tiles)
        if tile.tile_class().is_critical
    ]
    assert len(crits) == 1
    index_pos, index_val = crits[0]
    assert index_val == 1 and index_pos >= prefix


def test_join_shelling_initial_segment_is_star_union():
    left = classify(s(a, b), [s(a)])
    right = vertex_tile(w)
    t, prefix = shell_sd_join(left, right)
    assert verify_tiling(t.space, t).ok
    segment = covered(t.tiles[:prefix])
    expected = set()
    for lab in (a, b):
        expected |= star_faces(t.space, bary([lab]))
    assert segment == expected


def test_join_shelling_requires_basic_first_factor():
    dotted = classify(s(a, b), [EMPTY])
    with pytest.raises(ValueError):
        shell_sd_join(dotted, vertex_tile(v))


# -- single-tile shellings -------------------------------------------------------


def test_shelling_of_subdivided_closed_edge():
    t = shell_sd_tile(MorseTile(s(a, b), frozenset()))
    assert len(t.tiles) == 2
    assert verify_tiling(t.space, t).ok
    assert critical_census(t).critical == {0: 1}
    assert t.tiles[0].is_closed


def test_shelling_of_subdivided_open_triangle():
    t = shell_sd_tile(classify(s(a, b, c), list(s(a, b, c).ridges())))
    assert len(t.tiles) == 6
    assert verify_tiling(t.space, t).ok
    assert critical_census(t).critical == {2: 1}


def test_a_tile_is_shelled_by_the_shape_of_its_missing_set():
    """The engine reads a tile's masks off the verifier's shape: a vertex
    listed among the missing ridges is shelled as the Morse face it
    generates, and a Morse face off the simplex is rejected."""
    vertex_as_ridge = shell_sd_tile(MorseTile(s(a, b, c), frozenset([s(a)])))
    assert vertex_as_ridge.tiles == shell_sd_tile(MorseTile(s(a, b, c), frozenset(), s(a))).tiles
    with pytest.raises(ValueError, match="not a Morse tile: .* is not a proper face of"):
        shell_sd_tile(MorseTile(s(a, b, c), frozenset(), s(d)))


def test_shelling_of_subdivided_dotted_edge():
    t = shell_sd_tile(classify(s(a, b), [EMPTY]))
    assert verify_tiling(t.space, t).ok
    assert not t.space.has_empty_face
    crits = [tile for tile in t.tiles if tile.tile_class().is_critical]
    assert len(crits) == 1
    assert crits[0].morse_face == EMPTY and crits[0].tile_class().index == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shelling_of_closed_simplex_has_single_closed_critical(dim):
    from morseshell.labels import atom as at

    t = shell_sd_tile(MorseTile(Simplex([at(x) for x in "abcd"[: dim + 1]]), frozenset()))
    assert verify_tiling(t.space, t).ok
    assert critical_census(t).critical == {0: 1}
    assert all(tile.is_basic or tile.tile_class().is_critical for tile in t.tiles)


# -- boundary shellings -------------------------------------------------------------


def test_boundary_shelling_of_edge():
    # boundary of an edge: one closed vertex, then one dotted vertex
    tiling, prefix = shell_boundary_sd(s(a, b))
    assert len(tiling.tiles) == 2 and prefix == 1
    assert tiling.tiles[0] == vertex_tile(bary([a]))
    assert tiling.tiles[1] == vertex_tile(bary([b]), open_=True)
    assert verify_tiling(tiling.space, tiling).ok


def test_boundary_shelling_of_triangle():
    tiling, prefix = shell_boundary_sd(s(a, b, c), last=s(a, b))
    assert verify_tiling(tiling.space, tiling).ok
    census = critical_census(tiling).critical
    assert census == {0: 1, 1: 1}
    assert tiling.tiles[0].is_closed and tiling.tiles[-1].is_open
    # the leading tiles cover the subdivision of the boundary minus the last ridge
    kept = make_complex([[b, c], [a, c]])
    assert covered(tiling.tiles[:prefix]) == barycentric_complex(kept).faces()
    # the tail is coned at the barycenter of the last ridge over sd(∂ ab)
    apex = bary([a, b])
    assert all(apex in t.underlying for t in tiling.tiles[prefix:])
    assert len(shell_boundary_sd(s(a, b))[0].tiles) == len(tiling.tiles) - prefix


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_boundary_shelling_census_one_closed_one_open(dim):
    sigma = Simplex([atom(x) for x in "abcd"[: dim + 1]])
    tiling, _ = shell_boundary_sd(sigma)
    closed = [t for t in tiling.tiles if t.is_closed]
    open_ = [t for t in tiling.tiles if t.is_open]
    assert len(closed) == 1 and tiling.tiles[0] is closed[0]
    assert len(open_) == 1 and tiling.tiles[-1] is open_[0]
    assert verify_tiling(tiling.space, tiling).ok


def test_boundary_shelling_rejects_vertices():
    with pytest.raises(ValueError):
        shell_boundary_sd(s(a))


# -- cone shellings ------------------------------------------------------------------


def cone_shelling(apex, t, deprive_prefix):
    """Cone a shelled tiling on the engine's cone primitive, ``_cone_block``,
    depriving the first tiles of their bases; the space is the cone over
    t's space minus the deprived bases."""
    tiles = _cone_block(apex, t.rows, deprive_prefix)
    k, l = t.space.ambient, t.space.missing
    apex_simplex = Simplex([apex])
    ambient = SimplicialComplex([f.union(apex_simplex) for f in k.facets])
    gens = [f.union(apex_simplex) for f in l.facets]
    gens += [tile.underlying for tile in t.tiles[:deprive_prefix]]
    missing = SimplicialComplex(gens) if gens else void_complex()
    return Tiling._of_rows(RelativeComplex(ambient, missing), map(_row, tiles))


def test_cone_shelling_with_base_over_closed_tiling():
    inner = shell_sd_tile(MorseTile(s(a, b), frozenset()))
    out = cone_shelling(v, inner, deprive_prefix=0)
    assert verify_tiling(out.space, out).ok
    census = critical_census(out).critical
    assert census == {0: 1}
    assert out.tiles[0].is_closed


def test_cone_shelling_fully_deprived_raises_index():
    inner, _ = shell_boundary_sd(s(a, b, c))
    out = cone_shelling(v, inner, deprive_prefix=len(inner.tiles))
    cert = verify_tiling(out.space, out)
    assert cert.ok
    # the result tiles the subdivided open triangle: one critical of index 2
    assert critical_census(out).critical == {2: 1}
    assert not out.space.has_empty_face


def test_cone_shelling_rejects_clashing_apex():
    inner = shell_sd_tile(MorseTile(s(a, b), frozenset()))
    with pytest.raises(ValueError):
        cone_shelling(bary([a]), inner, 0)


# -- vertex-star-first shellings -------------------------------------------------------


def test_star_first_shelling_of_triangle():
    k = simplex_complex(2)
    va = k.vertices()[0]
    tiling, prefix = shell_sd_relative(RelativeComplex(k), va)
    assert len(tiling.tiles) == 6
    cert = verify_tiling(tiling.space, tiling)
    assert cert.ok
    assert covered(tiling.tiles[:prefix]) == star_faces(tiling.space, bary([va]))
    assert critical_census(tiling).critical == {0: 1}


def test_star_first_shelling_of_two_triangles_sharing_a_vertex():
    k = two_triangles()
    shared = atom("c")
    tiling, prefix = shell_sd_relative(RelativeComplex(k), shared)
    cert = verify_tiling(tiling.space, tiling)
    assert cert.ok
    assert covered(tiling.tiles[:prefix]) == star_faces(tiling.space, bary([shared]))
    # this complex admits no shelled tiling by basic tiles alone: a Morse
    # face must absorb the codimension-two contact
    assert any(not t.is_basic for t in tiling.tiles)


def test_star_first_shelling_of_circle_census():
    k = boundary_sphere(1)
    tiling, prefix = shell_sd_relative(RelativeComplex(k), k.vertices()[0])
    assert verify_tiling(tiling.space, tiling).ok
    assert critical_census(tiling).critical == {0: 1, 1: 1}


def test_star_first_shelling_of_relative_complex():
    k = make_complex([[a, b, c]])
    l = make_complex([[a, b]])
    s_rel = RelativeComplex(k, l)
    tiling, prefix = shell_sd_relative(s_rel, c)
    cert = verify_tiling(tiling.space, tiling)
    assert cert.ok
    assert covered(tiling.tiles[:prefix]) == star_faces(tiling.space, bary([c]))
    assert not tiling.space.has_empty_face


@pytest.mark.parametrize(
    "builder",
    [lambda: simplex_complex(3), lambda: boundary_sphere(2), cone_over_circle],
)
def test_star_first_shelling_every_vertex(builder):
    k = builder()
    for vert in k.vertices():
        tiling, prefix = shell_sd_relative(RelativeComplex(k), vert)
        assert verify_tiling(tiling.space, tiling).ok
        assert covered(tiling.tiles[:prefix]) == star_faces(tiling.space, bary([vert]))
        # one closed simplex owning the empty face, first; any further
        # index-zero critical tiles are deprived of the empty face
        closed = [i for i, t in enumerate(tiling.tiles) if t.is_closed]
        assert closed == [0]


def test_star_first_shelling_rejects_missing_vertex():
    with pytest.raises(ValueError):
        shell_sd_relative(RelativeComplex(simplex_complex(1)), atom("z"))


@pytest.mark.parametrize(
    "ambient, missing, vert",
    [
        ([[a, b, c]], [[a, b]], a),
        ([[a, b, c]], [[a]], a),
        ([[a, b, c], [c, d, w]], [[c]], c),
        ([[a, b, c], [b, c, d]], [[b, c]], a),
        ([[a, b, c, d]], [[a, b, c]], d),
        ([[a, b, c, d]], [[a, b, c]], a),
        ([[a, b]], [[b]], b),
        ([[a, b], [b, c]], [[b]], b),
    ],
)
def test_star_first_shelling_on_relative_pairs(ambient, missing, vert):
    from oracles import star_union_faces

    s_rel = RelativeComplex(make_complex(ambient), make_complex(missing))
    tiling, prefix = shell_sd_relative(s_rel, vert)
    assert verify_tiling(tiling.space, tiling).ok
    assert covered(tiling.tiles[:prefix]) == star_union_faces(tiling.space, {vert})


@pytest.mark.parametrize(
    "facets, trivial_census",
    [
        ([["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]], {0: 5, 1: 7, 2: 3}),
        (
            [[f"m{i}", f"m{(i + 1) % 5}", f"m{(i + 2) % 5}"] for i in range(5)],
            {0: 5, 1: 10, 2: 5},
        ),
    ],
)
def test_pipeline_on_book_and_moebius_band(facets, trivial_census):
    k = make_complex(facets)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok and cert.census.critical == trivial_census
    g = greedy_collapse_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, g)
    assert audit(k, g, tiling).ok


# -- the full pipeline -------------------------------------------------------------------


def test_pipeline_on_a_point():
    k = make_complex([[a]])
    tiling, census = shell_sd2_from_dmf(k, trivial_dmf(k))
    assert len(tiling.tiles) == 1
    assert tiling.tiles[0].is_closed
    assert census.critical == {0: 1}
    assert verify_tiling(tiling.space, tiling).ok


def test_pipeline_on_collapsing_edge():
    k = simplex_complex(1)
    f = dmf_from_matching(k, [(s(b), s(a, b))])
    tiling, census = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    assert cert.census.critical == {0: 1}


def test_pipeline_audits_a_function_that_is_not_canonical():
    """f(a) = 0, f(b) = 2, f(ab) = 1 pairs b with ab although its values
    are distinct; the audit counts f's critical faces as the pairing has
    them, one vertex."""
    k = simplex_complex(1)
    f = DiscreteMorseFunction({s(a): Fraction(0), s(b): Fraction(2), s(a, b): Fraction(1)})
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok, cert.failures
    assert cert.census.critical == {0: 1}


def test_pipeline_on_circle_with_trivial_function():
    k = boundary_sphere(1)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    # each of the 3 edges subdivides twice into 4 pieces
    assert len(tiling.tiles) == 12
    assert cert.census.critical == {0: 3, 1: 3}


def test_pipeline_on_solid_triangle_with_trivial_function():
    k = simplex_complex(2)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    assert len(tiling.tiles) == 36
    assert cert.census.critical == {0: 3, 1: 3, 2: 1}


def test_pipeline_on_cone_with_greedy_function():
    k = cone_over_circle()
    f = greedy_collapse_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    assert cert.census.critical == {0: 1}
    crits = [t for t in tiling.tiles if t.tile_class().is_critical]
    assert len(crits) == 1 and crits[0].is_closed


def test_pipeline_census_matches_faces_on_sphere():
    k = boundary_sphere(2)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    assert cert.census.critical == {0: 4, 1: 6, 2: 4}


def test_pipeline_on_disconnected_complex_with_isolated_vertex():
    k = make_complex([[a, b, c], [d]])
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    assert cert.census.critical == {0: 4, 1: 3, 2: 1}


def test_pipeline_is_deterministic():
    k = two_triangles()
    f = greedy_collapse_dmf(k)
    t1, c1 = shell_sd2_from_dmf(k, f)
    t2, c2 = shell_sd2_from_dmf(k, f)
    assert tiling_to_lines(t1, 2, c1) == tiling_to_lines(t2, 2, c2)


def test_pipeline_rejects_void_complex():
    from morseshell.morse import DiscreteMorseFunction

    with pytest.raises(ValueError):
        shell_sd2_from_dmf(void_complex(), DiscreteMorseFunction({}))


# -- transports ---------------------------------------------------------------------------


def test_transported_shelling_verifies_in_the_link():
    # shell the join model of a link, push it through the identification
    # with the actual link of a barycenter, and verify it there
    k = make_complex([[a, b, c], [b, c, d]])
    sigma = s(b, c)
    bd_tiling, _ = shell_boundary_sd(sigma)
    lk_tiling, _ = shell_sd_relative(RelativeComplex(link_complex(k, sigma)), a)
    tiles = []
    for left in bd_tiling.tiles:
        for right in lk_tiling.tiles:
            tiles.append(tile_join(left, right))
    model_space = RelativeComplex(
        join_complexes(
            barycentric_complex(boundary_complex(sigma)),
            barycentric_complex(link_complex(k, sigma)),
        )
    )
    model = Tiling(model_space, tuple(tiles))
    assert verify_tiling(model_space, model).ok
    m = link_iso_sd(k, sigma)
    sd_k = barycentric_complex(k)
    target_space = RelativeComplex(link_complex(sd_k, Simplex([bary([b, c])])))
    moved = apply_map(model, m)
    assert moved.tiles == tuple(relabel(t, m) for t in model.tiles)
    assert verify_tiling(target_space, Tiling(target_space, moved.tiles)).ok


def test_sd2_transport_agrees_with_the_link_isomorphism_oracle():
    # the engine's label map against the brute-force identification of
    # sd(sd(∂σ) ∗ sd(lk σ)) with the link of σ̂̂ in sd²(K), on every vertex
    k = two_triangles()
    for sigma in k.faces():
        if sigma.is_empty:
            continue
        transport = _sd2_transport(sigma)
        m = link_iso_sd2(k, sigma)
        domain = barycentric_complex(link_model_sd(k, sigma)).vertices()
        assert set(domain) == set(m.mapping)
        for lab in domain:
            assert transport(lab) == m[lab]
