import ast
import time
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

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
    closure_complex,
    make_complex,
)
from morseshell.engine import Tiling, shell_sd2_from_dmf
from morseshell.labels import atom
from morseshell.morse import greedy_collapse_dmf, trivial_dmf
from morseshell.tiles import MorseTile, TileClass, classify
from morseshell import verify
from morseshell.verify import _gf2_rank, audit, critical_census, mod2_betti, verify_tiling

from oracles import all_tiles_on, euler_signature, gf2_rank, shape_oracle, tile_class_oracle
from test_engine_kernel import RP2

a, b, c, d = (atom(x) for x in "abcd")


def s(*labels):
    return Simplex(labels)


@pytest.fixture(scope="module")
def circle_tiling():
    k = boundary_sphere(1)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    return k, f, tiling


# -- homology ------------------------------------------------------------------


def test_betti_of_solid_simplex_is_point_like():
    assert mod2_betti(simplex_complex(3)) == (1, 0, 0, 0)


def test_betti_of_two_sphere():
    assert mod2_betti(boundary_sphere(2)) == (1, 0, 1)


def _component_count(k):
    # independent connectivity oracle
    verts = list(k.vertices())
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in k.faces():
        if f.dim >= 1:
            base = find(f.vertices[0])
            for vert in f.vertices[1:]:
                parent[find(vert)] = base
    return len({find(v) for v in verts})


def test_betti_of_torus():
    k = moebius_torus()
    betti = mod2_betti(k)
    # cross-checks: connectivity, the fundamental class, and the Euler count
    assert betti[0] == _component_count(k) == 1
    for edge in (f for f in k.faces() if f.dim == 1):
        assert len(k.facets_containing(edge)) == 2
    assert sum((-1) ** i * bi for i, bi in enumerate(betti)) == k.euler() == 0
    assert betti == (1, 2, 1)


def test_betti_alternating_sum_is_euler():
    for k in (two_triangles(), cone_over_circle(), boundary_sphere(1)):
        betti = mod2_betti(k)
        assert sum((-1) ** i * bi for i, bi in enumerate(betti)) == k.euler()


def _boundary_columns(k, d):
    """Columns of the mod-2 boundary map from d-faces to (d-1)-faces."""
    rows = sorted((f for f in k.faces() if f.dim == d - 1), key=lambda f: f.key)
    row = {f: i for i, f in enumerate(rows)}
    return [
        sum(1 << row[r] for r in f.ridges())
        for f in sorted((f for f in k.faces() if f.dim == d), key=lambda f: f.key)
    ]


@pytest.mark.parametrize(
    "builder",
    [
        lambda: simplex_complex(3),
        lambda: boundary_sphere(3),
        cone_over_circle,
        two_triangles,
        moebius_torus,
    ],
    ids=["simplex", "sphere", "cone", "two-triangles", "torus"],
)
def test_gf2_rank_matches_row_reduction_on_catalog_complexes_and_their_subdivisions(builder):
    k = builder()
    rng = Random(5)
    for space in (k, barycentric(RelativeComplex(k)).ambient):
        for d in range(1, space.dim + 1):
            cols = _boundary_columns(space, d)
            assert _gf2_rank(cols) == gf2_rank(cols)
            rng.shuffle(cols)
            assert _gf2_rank(cols) == gf2_rank(cols)
        assert mod2_betti(space) == mod2_betti(k)


def test_gf2_rank_matches_row_reduction_on_random_columns():
    rng = Random(11)
    for _ in range(200):
        width, count = rng.randint(1, 12), rng.randint(0, 12)
        cols = [rng.getrandbits(width) for _ in range(count)]
        assert _gf2_rank(cols) == gf2_rank(cols)


# -- certificates on honest tilings ----------------------------------------------


def test_verify_accepts_engine_output(circle_tiling):
    k, f, tiling = circle_tiling
    cert = verify_tiling(tiling.space, tiling)
    assert cert.ok and not cert.failures
    assert cert.census.critical == {0: 3, 1: 3}


def test_census_counts_regular_tiles(circle_tiling):
    _, _, tiling = circle_tiling
    census = critical_census(tiling)
    assert census.regular == len(tiling.tiles) - 6


def test_tile_euler_signatures_sum_to_euler(circle_tiling):
    _, _, tiling = circle_tiling
    total = sum(map(euler_signature, tiling.tiles))
    assert total == tiling.space.ambient.euler() == 0


def test_verify_passes_on_every_shelling_prefix(circle_tiling):
    _, _, tiling = circle_tiling
    for p in range(1, len(tiling.tiles) + 1):
        prefix = tiling.tiles[:p]
        ambient = SimplicialComplex([t.underlying for t in prefix])
        space = RelativeComplex(ambient)
        assert verify_tiling(space, Tiling(space, prefix)).ok


def test_strong_condition_flag_runs(circle_tiling):
    _, _, tiling = circle_tiling
    cert = verify_tiling(tiling.space, tiling, strong=True)
    assert cert.strong_ok is not None


# -- negative controls --------------------------------------------------------------


def test_reversed_shelling_fails(circle_tiling):
    _, _, tiling = circle_tiling
    reversed_t = Tiling(tiling.space, tuple(reversed(tiling.tiles)))
    cert = verify_tiling(tiling.space, reversed_t)
    assert not cert.shelling_ok
    assert any(reason.startswith("closure face") for _, reason, _ in cert.failures)


def test_order_swap_across_dependency_fails(circle_tiling):
    _, _, tiling = circle_tiling
    tiles = list(tiling.tiles)
    tiles[0], tiles[-1] = tiles[-1], tiles[0]
    cert = verify_tiling(tiling.space, Tiling(tiling.space, tuple(tiles)))
    assert not cert.shelling_ok
    witnesses = [w for _, _, w in cert.failures if w is not None]
    assert witnesses


def test_injected_missing_face_fails_classification():
    k = simplex_complex(3)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    tiles = list(tiling.tiles)
    bad = tiles[0]
    assert bad.is_closed
    verts = sorted(bad.underlying.vertices)
    # two incomparable extra codimension-two faces cannot be one Morse face
    mutated = MorseTile(
        bad.underlying,
        bad.missing_ridges | {Simplex([verts[0]]), Simplex([verts[1]])},
        bad.morse_face,
    )
    tiles[0] = mutated
    cert = verify_tiling(tiling.space, Tiling(tiling.space, tuple(tiles)))
    assert not cert.tiles_ok
    assert not cert.partition_ok  # the dropped faces are now uncovered


def test_dropped_tile_breaks_partition(circle_tiling):
    _, _, tiling = circle_tiling
    cert = verify_tiling(tiling.space, Tiling(tiling.space, tiling.tiles[:-1]))
    assert not cert.partition_ok
    assert any(reason == "face not covered by any tile" for _, reason, _ in cert.failures)


def test_foreign_tile_fails_anchoring(circle_tiling):
    _, _, tiling = circle_tiling
    foreign = MorseTile(s(a, b, c, d), frozenset())
    cert = verify_tiling(
        tiling.space, Tiling(tiling.space, tiling.tiles + (foreign,))
    )
    assert not cert.partition_ok


def test_audit_census_mismatch_is_flagged():
    k = cone_over_circle()
    trivial = trivial_dmf(k)
    greedy = greedy_collapse_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, greedy)
    cert = audit(k, trivial, tiling)
    assert cert.census_matches_function is False
    assert not cert.ok


def test_audit_checks_weak_morse_inequalities():
    k = boundary_sphere(2)
    f = trivial_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling)
    assert cert.ok
    betti = mod2_betti(k)
    for i, bi in enumerate(betti):
        assert cert.census.critical.get(i, 0) >= bi


def test_audit_rejects_a_tiling_of_a_relabelled_copy(circle_tiling):
    k, f, _ = circle_tiling
    copy = make_complex([["x" + v.name for v in facet] for facet in k.facets])
    tiling, _ = shell_sd2_from_dmf(copy, trivial_dmf(copy))
    assert verify_tiling(tiling.space, tiling).ok
    cert = audit(k, f, tiling)
    assert not cert.partition_ok and not cert.ok
    assert (None, "tiling names a space other than sd²(K)", None) in cert.failures


def test_audit_lists_the_space_failure_first(circle_tiling):
    k, f, _ = circle_tiling
    copy = make_complex([["x" + v.name for v in facet] for facet in k.facets])
    honest, _ = shell_sd2_from_dmf(copy, trivial_dmf(copy))
    tiling = Tiling(honest.space, honest.tiles[1:])
    cert = audit(k, f, tiling)
    assert len(cert.failures) > 1
    assert cert.failures[0] == (None, "tiling names a space other than sd²(K)", None)


def test_audit_reports_each_homology_failure_once():
    k = moebius_torus()
    f = greedy_collapse_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    kept = tuple(t for t in tiling.tiles if t.tile_class() != TileClass.critical(0))
    assert len(kept) == len(tiling.tiles) - 1
    cert = audit(k, f, Tiling(tiling.space, kept))
    assert not cert.partition_ok
    assert not cert.euler_ok and not cert.morse_inequalities_ok
    reasons = [reason for _, reason, _ in cert.failures]
    assert sum(r.startswith("signed census") for r in reasons) == 1
    assert sum("betti" in r for r in reasons) == 1


# -- one classification rule --------------------------------------------------------


def test_tile_shape_index_is_the_restriction_set_rule_on_every_tile_up_to_dim_4():
    tiles = [t for dim in range(5) for t in all_tiles_on(Simplex([atom(x) for x in "abcde"[: dim + 1]]))]
    assert len(tiles) == 234
    # the open vertex written with its ridge ∅ also missing as Morse face:
    # its face set is {c}, so it is critical of index 0
    tiles.append(MorseTile(s(c), frozenset([EMPTY]), EMPTY))
    for t in tiles:
        assert verify._tile_shape(t).index == tile_class_oracle(t) == t.tile_class().index, t


@pytest.mark.parametrize("name", ["torus", "rp2", "bd4"])
@pytest.mark.parametrize("kind", ["trivial", "greedy"])
def test_tile_shape_index_is_the_restriction_set_rule_on_sd2_tiles(name, kind):
    k = {"torus": moebius_torus, "rp2": lambda: RP2, "bd4": lambda: boundary_sphere(3)}[name]()
    f = trivial_dmf(k) if kind == "trivial" else greedy_collapse_dmf(k)
    tiling, _ = shell_sd2_from_dmf(k, f)
    disagree = [t for t in tiling.tiles if verify._tile_shape(t).index != tile_class_oracle(t)]
    assert disagree == []


def _generator_sets():
    """Every generator set for n <= 3, every set of at most four generators
    for n = 4, and 2,000 seeded random sets for each n = 5..10, about half
    of each drawn among the ridges."""
    for n in range(4):
        masks = range(1 << n)
        for bits in range(1 << (1 << n)):
            yield n, frozenset(m for m in masks if bits >> m & 1)
    for k in range(5):
        for gens in combinations(range(16), k):
            yield 4, frozenset(gens)
    rng = Random(21)
    for n in range(5, 11):
        full = (1 << n) - 1
        ridges = [full ^ (1 << i) for i in range(n)]
        for _ in range(2000):
            k = rng.randint(0, n + 1)
            drawn = rng.sample(ridges, k // 2) + [rng.randrange(1 << n) for _ in range(k - k // 2)]
            yield n, frozenset(drawn)


def test_shape_from_generators_equals_the_closure_rule():
    count = 0
    for n, gens in _generator_sets():
        got, ref = verify._shape(n, gens), shape_oracle(n, gens)
        assert got.generators == gens
        assert (got.index, got.reason, got.restriction, got.top) == ref[2:], (n, sorted(gens))
        if n <= 4:
            assert verify._closure(n, gens) == (ref.closure, ref.owned), (n, sorted(gens))
        count += 1
    assert count == 278 + 2517 + 6 * 2000


@pytest.mark.parametrize("width", [40, 70])
def test_a_wide_tile_classifies_in_polynomial_time(width):
    """Tiles on 40 and on 70 atoms: the shape reads their generators, never
    the 2^n masks of the simplex, and has a position bit for every vertex."""
    atoms = [atom(f"w{i:02}") for i in range(width)]
    sigma = Simplex(atoms)
    ridge = sigma.without(atoms[0])
    cases = [
        ([], MorseTile(sigma, frozenset()), 0),
        ([ridge], MorseTile(sigma, frozenset([ridge])), None),
        ([EMPTY], MorseTile(sigma, frozenset(), EMPTY), 0),
        ([ridge, s(atoms[0])], MorseTile(sigma, frozenset([ridge]), s(atoms[0])), 1),
    ]
    start = time.perf_counter()
    for missing, tile, index in cases:
        cls = TileClass.regular() if index is None else TileClass.critical(index)
        assert tile.tile_class() == cls and repr(tile).endswith(f"[{cls!r}])")
        assert classify(sigma, missing) == tile
    tiling = Tiling(RelativeComplex(closure_complex(sigma)), tuple(tile for _, tile, _ in cases))
    assert critical_census(tiling).indices == [index for _, _, index in cases]
    assert time.perf_counter() - start < 1.0


GUARDED = ("morseshell.engine", "morseshell.tiles")


def _run_time_engine_imports(source):
    """Line numbers of the imports of ``morseshell.engine`` or
    ``morseshell.tiles`` in a module of the package, leaving out those under
    ``if TYPE_CHECKING``."""
    tree = ast.parse(source)
    type_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            type_only.update(id(sub) for stmt in node.body for sub in ast.walk(stmt))
    lines = []
    for node in ast.walk(tree):
        if id(node) in type_only:
            continue
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["morseshell" if node.level else "", node.module]))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            continue
        if any(target in GUARDED for target in targets):
            lines.append(node.lineno)
    return lines


def test_verify_imports_nothing_from_the_engine_at_run_time():
    """The verifier certifies the engine's tilings, so it must not run on
    the engine's code or on the tile module, whose classification is the
    verifier's own: only annotations under ``TYPE_CHECKING`` may name them."""
    lines = _run_time_engine_imports(Path(verify.__file__).read_text())
    assert lines == [], f"run-time imports from the engine or the tiles on lines {lines}"


@pytest.mark.parametrize(
    "statement",
    [
        "from .engine import Tiling",
        "from . import engine",
        "from morseshell.engine import Tiling",
        "from morseshell import engine",
        "import morseshell.engine",
        "from .tiles import MorseTile",
        "from . import tiles",
        "from morseshell.tiles import MorseTile",
        "import morseshell.tiles",
    ],
)
def test_engine_import_guard_sees_every_import_form(statement):
    assert _run_time_engine_imports(f"import os\n{statement}\n") == [2]
    guarded = f"from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    {statement}\n"
    assert _run_time_engine_imports(guarded) == []


def test_every_row_is_a_morse_tile():
    """Every omitted mask and every Morse mask of a proper face, or -1,
    make a row of Morse-tile shape: all 5,461 rows on at most six
    vertices.  So only a ``MorseTile`` given to ``Tiling(space, tiles)``
    can fail ``tiles_ok``."""
    rows = [(n, omitted, morse) for n in range(7) for omitted in range(1 << n) for morse in range(-1, (1 << n) - 1)]
    assert len(rows) == 5461
    assert [row for row in rows if verify._row_shape(*row).reason is not None] == []
