"""The engine's kernel on compact tiles against the reference recursion on
MorseTiles (``oracles``): identical tiles and segment lengths, plus the edge
cases of the compact form."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    all_tiles_on,
    boundary_sd_oracle,
    cone,
    dotted,
    entries_oracle,
    shell_entries_join_oracle,
    shell_sd2_oracle,
    shell_sd_join_oracle,
    shell_sd_relative_oracle,
    split_cone_tile_oracle,
    subtract_oracle,
    vertex_tile,
)
from test_acceptance import _pairs_up_to_total_dim

from morseshell import engine as engine_module
from morseshell import tiles as tiles_module
from morseshell.catalog import (
    boundary_sphere,
    cone_over_circle,
    moebius_torus,
    simplex_complex,
    two_triangles,
)
from morseshell.complexes import EMPTY, RelativeComplex, Simplex, make_complex
from morseshell.engine import (
    CLOSED,
    DOTTED,
    OPEN,
    _cone,
    _entries,
    _input_entries,
    _join_template,
    _row,
    _shell_entries_join,
    _split_cone_tile,
    _strip_empty,
    _subtract,
    shell_boundary_sd,
    shell_sd2_from_dmf,
    shell_sd_join,
    shell_sd_relative,
)
from morseshell.labels import atom, bary
from morseshell.morse import DiscreteMorseFunction, greedy_collapse_dmf, trivial_dmf
from morseshell.tiles import MorseTile
from morseshell.verify import _encode

a, b, c, d, u, v, w = (atom(x) for x in "abcduvw")


def view_of(t):
    """The MorseTile of a flag-order triple: the view of its row."""
    return MorseTile._of_row(_row(t))


RP2 = make_complex([
    [f"r{i}" for i in tri]
    for tri in [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
])

CATALOG = {
    "segment": simplex_complex(1),
    "triangle": simplex_complex(2),
    "tetrahedron": simplex_complex(3),
    "circle": boundary_sphere(1),
    "sphere": boundary_sphere(2),
    "cone": cone_over_circle(),
    "two-triangles": two_triangles(),
    "torus": moebius_torus(),
    "rp2": RP2,
}


def s(*labels):
    return Simplex(labels)


# -- reference equivalence -------------------------------------------------------


def test_join_kernel_matches_reference_on_all_criterion_3_pairs():
    pairs = list(_pairs_up_to_total_dim(3))
    assert len(pairs) == 318
    for t, tp in pairs:
        tiling, prefix = shell_sd_join(t, tp)
        tiles, ref_prefix = shell_sd_join_oracle(t, tp)
        assert (tiling.tiles, prefix) == (tuple(tiles), ref_prefix), (t, tp)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_relative_kernel_matches_reference_at_every_vertex(name):
    space = RelativeComplex(CATALOG[name])
    for vert in space.ambient.vertices():
        tiling, prefix = shell_sd_relative(space, vert)
        tiles, ref_prefix = shell_sd_relative_oracle(space, vert)
        assert (tiling.tiles, prefix) == (tuple(tiles), ref_prefix), vert


@pytest.mark.parametrize(
    "ambient, missing, vert",
    [
        ([[a, b, c]], [[a, b]], a),
        ([[a, b, c], [c, d, w]], [[c]], c),
        ([[a, b, c], [b, c, d]], [[b, c]], a),
        ([[a, b, c, d]], [[a, b, c]], d),
        ([[a, b], [b, c]], [[b]], b),
    ],
)
def test_relative_kernel_matches_reference_on_relative_pairs(ambient, missing, vert):
    space = RelativeComplex(make_complex(ambient), make_complex(missing))
    tiling, prefix = shell_sd_relative(space, vert)
    tiles, ref_prefix = shell_sd_relative_oracle(space, vert)
    assert (tiling.tiles, prefix) == (tuple(tiles), ref_prefix)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_boundary_kernel_matches_reference_for_every_last_ridge(dim):
    sigma = Simplex([atom(x) for x in "abcde"[: dim + 1]])
    for last in sigma.ridges():
        tiling, got_prefix = shell_boundary_sd(sigma, last)
        tiles, prefix, apex, base = boundary_sd_oracle(sigma, last)
        assert (tiling.tiles, got_prefix) == (tuple(tiles), prefix), last
        # the tail is the cone at the last ridge's barycenter over its own
        # boundary shelling, which a vertex does not have
        assert apex == bary(last.vertices)
        assert tuple(base) == (shell_boundary_sd(last)[0].tiles if last.dim else ()), last


@pytest.mark.parametrize("name", ["torus", "rp2", "bd4"])
@pytest.mark.parametrize("kind", ["trivial", "greedy"])
def test_sd2_kernel_matches_reference(name, kind):
    k = boundary_sphere(3) if name == "bd4" else CATALOG[name]
    f = trivial_dmf(k) if kind == "trivial" else greedy_collapse_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    assert tiling.tiles == tuple(shell_sd2_oracle(k, f))


def test_sd2_kernel_and_reference_step_alike_on_a_canonical_function():
    """On the path a b / b c, f(b) = 0 is the least value, but the step
    order is the canonical form's, which takes the vertex a first; the
    kernel and the reference both shell along it."""
    k = make_complex([["a", "b"], ["b", "c"]])
    values = [((b,), 0), ((a,), 1), ((c,), 2), ((a, b), 3), ((b, c), 4)]
    f = DiscreteMorseFunction({Simplex(vs): Fraction(x) for vs, x in values})
    assert list(shell_sd2_from_dmf(k, f)[0].tiles) == shell_sd2_oracle(k, f)


def test_sd2_pipeline_calls_neither_cone_nor_relabel():
    """The MorseTile cone and relabel live in the test oracles now; the
    engine binds nothing from ``morseshell.tiles`` but the tile type and
    ``tile_to_relative``, and builds every tile on its compact kernel."""
    from_tiles = {
        attr
        for attr, value in vars(engine_module).items()
        if value is tiles_module or getattr(value, "__module__", None) == tiles_module.__name__
    }
    assert from_tiles == {"MorseTile", "tile_to_relative"}
    k = moebius_torus()
    for f in (trivial_dmf(k), greedy_collapse_dmf(k)):
        tiling, census = shell_sd2_from_dmf(k, f)
        assert len(tiling.tiles) == 504 and census.critical


@st.composite
def join_patterns(draw):
    """Two sides of up to 5 (vertex, role) entries in all, each role closed,
    open or dotted, in any order; the vertices' label-key order is a random
    permutation of their positions."""
    n = draw(st.integers(1, 5))
    ranks = draw(st.permutations(range(n)))
    roles = draw(st.lists(st.sampled_from([CLOSED, OPEN, DOTTED]), min_size=n, max_size=n))
    cut = draw(st.integers(0, n))
    entries = tuple((atom(f"p{r}"), role) for r, role in zip(ranks, roles))
    return entries[:cut], entries[cut:]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(join_patterns())
def test_memoized_join_matches_reference_on_random_patterns(sides):
    """The join shelled once per (rank, role) shape and mapped onto the
    labels gives the reference recursion's tiles and segment, on the first
    call of a shape and on a later, cached one."""
    want_tiles, want_prefix = shell_entries_join_oracle(*sides)
    for _ in range(2):
        tiles, prefix = _shell_entries_join(*sides)
        assert ([view_of(t) for t in tiles], prefix) == (want_tiles, want_prefix)


def test_join_template_is_keyed_by_shape_and_holds_masks():
    _join_template.cache_clear()
    left = ((bary([a]), CLOSED),)
    for x, y in [(b, c), (d, v)]:
        _shell_entries_join(left, ((bary([x]), OPEN), (bary([y]), DOTTED)))
    # the two calls differ in labels only: one template, held over masks
    assert _join_template.cache_info().currsize == 1
    tiles, prefix, masks = _join_template(((0, CLOSED),), ((1, OPEN), (2, DOTTED)))
    assert _join_template.cache_info().hits == 2
    assert all(type(m) is int for t in tiles for m in t[0]) and set(masks) <= set(range(1, 8))
    with pytest.raises(ValueError):
        _shell_entries_join(left, left)


# -- the compact form ------------------------------------------------------------


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_compact_round_trip_entries_and_cone_on_every_tile(dim):
    simplex = Simplex([atom(x) for x in "abcd"[: dim + 1]])
    for t in all_tiles_on(simplex):
        row, kept = _encode(t)
        assert kept is None and MorseTile._of_row(row) == t
        assert _entries(row) == _input_entries(t) == entries_oracle(t)
        for dotted in (False, True):
            assert view_of(_cone(v, row, dotted)) == cone(v, t, dotted)


def test_open_vertex_is_the_dotted_vertex():
    hat = bary([a])
    closed, open_ = ((hat,), 0, -1), ((hat,), 1, -1)
    # the ridge {∅} of the open vertex is bit 0, and dotting gives the same tile
    assert view_of(open_) == vertex_tile(hat, open_=True) == dotted(vertex_tile(hat))
    assert _strip_empty([closed]) == [open_]
    assert _subtract(closed, {()}) == open_
    assert _entries(open_) == ((hat, OPEN),)
    assert view_of(_cone(v, open_)) == cone(v, vertex_tile(hat, open_=True))
    assert view_of(_cone(v, open_, dotted=True)) == cone(v, vertex_tile(hat, open_=True), dotted=True)


def test_codimension_one_morse_face_folds_into_the_ridges():
    # an edge b c with Morse face {b} (codimension one, as _subtract may
    # leave it): coning at a turns {a, b} into a missing ridge
    ct = ((b, c), 0, 0b01)
    coned = _cone(a, ct)
    assert coned == ((a, b, c), 0b100, -1)
    ref = cone(a, MorseTile(s(b, c), frozenset(), s(b)))
    assert view_of(coned) == ref and ref.missing_ridges == {s(a, b)}
    # a dotted vertex with the empty Morse face folds the same way
    assert _cone(a, ((b,), 0, 0)) == ((a, b), 0b10, -1)
    assert view_of(_cone(a, ((b,), 0, 0))) == cone(a, MorseTile(s(b), frozenset(), EMPTY))
    # a Morse face of codimension two stays
    assert _cone(a, ((b, c), 0, 0)) == ((a, b, c), 0, 0b001)


def test_cone_rejects_an_apex_already_in_the_tile():
    with pytest.raises(ValueError):
        _cone(a, ((a, b), 0, -1))


def test_subtract_on_a_vertex_tile_and_on_the_empty_face():
    hat, edge = bary([a]), (bary([a]), bary([a, b]))
    # a vertex tile whose only missing face is ∅ becomes the open vertex
    ref = subtract_oracle(vertex_tile(hat), frozenset([EMPTY]))
    assert view_of(_subtract(((hat,), 0, -1), {()})) == ref == vertex_tile(hat, open_=True)
    # a closed edge loses its empty face: the empty Morse face
    closed = (edge, 0, -1)
    assert _subtract(closed, {()}) == (edge, 0, 0)
    ref = subtract_oracle(view_of(closed), frozenset([EMPTY]))
    assert view_of(_subtract(closed, {()})) == ref and ref.morse_face == EMPTY
    # a tile that does not own the empty face is left alone
    assert _subtract((edge, 0b10, -1), {()}) == (edge, 0b10, -1)
    # the bottom vertex â in the subcomplex: the Morse face {â}
    m = {(), (a,)}
    assert _subtract(closed, m) == (edge, 0, 0b01)
    assert view_of(_subtract(closed, m)) == subtract_oracle(view_of(closed), frozenset([EMPTY, s(a)]))
    # nothing to remove
    assert _subtract(closed, set()) is closed


def test_split_cone_tile_at_a_non_leading_apex_position():
    # apex u second in the flag x u y (z)
    x, y, z = bary([a]), bary([a, b]), bary([a, b, c])
    for t in [((x, u, y), 0b101, -1), ((x, u, y, z), 0b0001, 0b0011), ((x, u, y, z), 0, 0b0010)]:
        got = _split_cone_tile(t, u)
        assert view_of(got) == split_cone_tile_oracle(view_of(t), u)
    # apex ∗ dotted vertex: the open vertex
    assert _split_cone_tile(((x, u), 0, 0b10), u) == ((x,), 1, -1)
    # apex ∗ dotted edge
    assert _split_cone_tile(((x, u, y), 0, 0b010), u) == ((x, y), 0, 0)
    # the apex alone: nothing left
    assert _split_cone_tile(((u,), 0, -1), u) == ((), 0, -1)


def test_split_cone_tile_asserts_on_a_non_cone():
    x, y = bary([a]), bary([a, b])
    with pytest.raises(AssertionError):
        _split_cone_tile(((x, u, y), 0b010, -1), u)  # the ridge omitting u is missing
    with pytest.raises(AssertionError):
        _split_cone_tile(((x, u, y), 0, 0b001), u)  # the Morse face misses u
    with pytest.raises(AssertionError):
        _split_cone_tile(((x, y), 0, -1), u)  # u is not a vertex
