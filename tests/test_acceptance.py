"""Acceptance suite.

Each criterion runs at its stated tolerance (everything here is exact
integer combinatorics) and prints one PASS/FAIL line.  Run with ``-s`` to
see the lines as they appear.
"""
import json
import time

import pytest

from oracles import (
    all_subcomplex_missing_sets,
    all_tiles_on,
    basic_tiles_on,
    canonical_triple,
    cone,
    covered_faces,
    missing_closure,
    recompose,
    star_union_faces,
)

from morseshell.catalog import (
    boundary_sphere,
    cone_over_circle,
    moebius_torus,
    simplex_complex,
    two_triangles,
)
from morseshell.cli import run as cli_run
from morseshell.complexes import RelativeComplex, Simplex
from morseshell.engine import Tiling, shell_sd2_from_dmf, shell_sd_join, shell_sd_relative
from morseshell.labels import atom
from morseshell.morse import critical_faces, greedy_collapse_dmf, trivial_dmf
from morseshell.serial import dump_complex_text
from morseshell.tiles import MorseTile, NotAMorseTileError, classify, tile_join
from morseshell.verify import critical_census, mod2_betti, verify_tiling

CORPUS = {
    "segment": simplex_complex(1),
    "triangle": simplex_complex(2),
    "tetrahedron": simplex_complex(3),
    "circle": boundary_sphere(1),
    "sphere": boundary_sphere(2),
    "cone": cone_over_circle(),
    "two-triangles": two_triangles(),
    "torus": moebius_torus(),
}


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def pipeline_runs():
    """Every corpus complex with both Morse functions, shelled and timed."""
    runs = {}
    for cname, k in CORPUS.items():
        for fname in ("trivial", "greedy"):
            f = trivial_dmf(k) if fname == "trivial" else greedy_collapse_dmf(k)
            t0 = time.perf_counter()
            tiling, census = shell_sd2_from_dmf(k, f)
            elapsed = time.perf_counter() - t0
            runs[(cname, fname)] = (k, f, tiling, elapsed)
    return runs


def test_criterion_1_census_equality(pipeline_runs):
    """Every corpus pair verifies and its census equals the critical-face
    census index by index; torus under 10 s, everything under 30 s."""
    ok = True
    total = 0.0
    for (cname, fname), (k, f, tiling, elapsed) in pipeline_runs.items():
        total += elapsed
        cert = verify_tiling(tiling.space, tiling)
        expected = {}
        for idx in critical_faces(k, f).values():
            expected[idx] = expected.get(idx, 0) + 1
        if not cert.ok or cert.census.critical != expected:
            ok = False
        if cname == "torus" and elapsed >= 10.0:
            ok = False
    if total >= 30.0:
        ok = False
    assert report(1, "main census equality over the corpus", ok)


def test_criterion_2_collapsibility(pipeline_runs):
    """Collapsible inputs with the greedy function give one closed critical
    tile and nothing else."""
    ok = True
    for cname in ("cone", "tetrahedron"):
        _, _, tiling, _ = pipeline_runs[(cname, "greedy")]
        census = critical_census(tiling)
        crits = [t for t in tiling.tiles if t.tile_class().is_critical]
        if census.critical != {0: 1} or len(crits) != 1 or not crits[0].is_closed:
            ok = False
    assert report(2, "collapsible complexes shell with one closed tile", ok)


LETTERS_LEFT = "wxyz"
LETTERS_RIGHT = "pqrs"


def _pairs_up_to_total_dim(total):
    for da in range(total + 1):
        left_simplex = Simplex([atom(x) for x in LETTERS_LEFT[: da + 1]])
        for db in range(total - da + 1):
            right_simplex = Simplex([atom(x) for x in LETTERS_RIGHT[: db + 1]])
            for t in basic_tiles_on(left_simplex):
                for tp in all_tiles_on(right_simplex):
                    yield t, tp


def test_criterion_3_join_shelling_sweep():
    """All ordered pairs (basic T, Morse T') with dim T + dim T' <= 3:
    verification, exact initial segment, critical counts and locations;
    the whole sweep under 60 s.  The report line gives the elapsed time and,
    on a failure, the pair and the check it failed."""
    ok = True
    checked = 0
    failure = ""
    t0 = time.perf_counter()
    for t, tp in _pairs_up_to_total_dim(3):
        tiling, prefix = shell_sd_join(t, tp)
        cert = verify_tiling(tiling.space, tiling)
        if not cert.ok:
            ok = False
            failure = f"verification: {cert.failures[0]}"
            break
        segment = covered_faces(tiling.tiles[:prefix])
        expected_n = star_union_faces(tiling.space, set(t.underlying.vertices))
        if segment != expected_n:
            ok = False
            failure = "initial segment is not the union of the stars of T's vertices"
            break
        crits = [
            (i, tile)
            for i, tile in enumerate(tiling.tiles)
            if tile.tile_class().is_critical
        ]
        joined = tile_join(t, tp)
        jclass = joined.tile_class()
        if t.is_open and tp.is_basic and tp.is_closed:
            good = (
                len(crits) == 2
                and crits[0][0] < prefix <= crits[1][0]
                and crits[0][1].tile_class().index == t.dim
                and crits[1][1].tile_class().index == t.dim + 1
            )
        elif tp.is_basic:
            if not all(
                tile.is_basic or tile.tile_class().is_critical for tile in tiling.tiles
            ):
                good = False
            elif jclass.is_critical:
                good = len(crits) == 1 and crits[0][1].tile_class().index == jclass.index
                if joined.is_closed:
                    good = good and crits[0][0] < prefix
                else:
                    good = good and crits[0][0] >= prefix
            else:
                good = not crits
        else:
            if jclass.is_critical:
                good = (
                    len(crits) == 1
                    and crits[0][0] >= prefix
                    and crits[0][1].tile_class().index == jclass.index
                )
                if good:
                    trip_got = canonical_triple(crits[0][1])
                    trip_want = canonical_triple(joined)
                    good = (
                        len(trip_got.sigma) == len(trip_want.sigma)
                        and len(trip_got.theta) == len(trip_want.theta)
                        and len(trip_got.tau) == len(trip_want.tau)
                    )
            else:
                good = not crits
        if not good:
            ok = False
            failure = "critical tiles: count, index, position or shape"
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        ok = False
    name = f"join-shelling sweep over {checked} tile pairs in {elapsed:.1f} s (gate 60 s)"
    if failure:
        name += f"; pair {checked + 1}, T = {t!r}, T' = {tp!r}, fails {failure}"
    assert report(3, name, ok)


def test_criterion_4_vertex_star_shellings():
    """Every corpus complex, every vertex: verification plus exact initial
    star segment."""
    ok = True
    for cname, k in CORPUS.items():
        space = None
        for vert in k.vertices():
            tiling, prefix = shell_sd_relative(RelativeComplex(k), vert)
            cert = verify_tiling(tiling.space, tiling)
            segment = covered_faces(tiling.tiles[:prefix])
            expected = star_union_faces(tiling.space, {vert})
            if not cert.ok or segment != expected:
                ok = False
    assert report(4, "vertex-star-first shellings across the corpus", ok)


def test_criterion_5_tile_calculus_oracles():
    """classify against full enumeration on boundary subcomplexes; triple
    round-trips, join additivity and cone criticality, all exhaustive."""
    ok = True
    t0 = time.perf_counter()
    for dim in (2, 3):
        underlying = Simplex([atom(x) for x in "abcd"[: dim + 1]])
        shapes = {}
        for tile in all_tiles_on(underlying):
            shapes.setdefault(missing_closure(tile), tile)
        for missing in all_subcomplex_missing_sets(underlying):
            gens = [f for f in missing if not any(f < g for g in missing)]
            if missing in shapes:
                try:
                    got = classify(underlying, gens)
                except NotAMorseTileError:
                    ok = False
                    continue
                expect = shapes[missing]
                if (
                    got.missing_ridges != expect.missing_ridges
                    or got.morse_face != expect.morse_face
                    or got.tile_class() != expect.tile_class()
                ):
                    ok = False
            else:
                try:
                    classify(underlying, gens)
                    ok = False
                except NotAMorseTileError:
                    pass
    for dim in range(5):
        underlying = Simplex([atom(x) for x in "abcde"[: dim + 1]])
        for tile in all_tiles_on(underlying):
            again = recompose(canonical_triple(tile))
            if (
                again.underlying != tile.underlying
                or again.missing_ridges != tile.missing_ridges
                or again.morse_face != tile.morse_face
            ):
                ok = False
    apex = atom("apex")
    for da in range(4):
        left = Simplex([atom(x) for x in LETTERS_LEFT[: da + 1]])
        for tile in all_tiles_on(left):
            closed_cone = cone(apex, tile)
            if closed_cone.tile_class().is_critical != tile.is_closed:
                ok = False
            deprived = cone(apex, tile, dotted=True)
            cls = tile.tile_class()
            expect_crit = cls.is_critical and not tile.is_closed
            got = deprived.tile_class()
            if got.is_critical != expect_crit:
                ok = False
            if expect_crit and got.index != cls.index + 1:
                ok = False
        for db in range(4 - da):
            if da + db + 1 > 4:
                continue
            right = Simplex([atom(x) for x in LETTERS_RIGHT[: db + 1]])
            for t in basic_tiles_on(left):
                for tp in all_tiles_on(right):
                    if tile_join(t, tp).order != t.order + tp.order:
                        ok = False
    if time.perf_counter() - t0 >= 120.0:
        ok = False
    assert report(5, "tile calculus agrees with brute-force oracles", ok)


def test_criterion_6_conservation_audits(pipeline_runs):
    """On every verified tiling of an absolute complex: signed census equals
    the Euler characteristic and dominates the mod-2 Betti numbers."""
    ok = True
    tilings = []
    for (cname, fname), (k, f, tiling, _) in pipeline_runs.items():
        tilings.append((k, tiling))
    for cname, k in CORPUS.items():
        tiling, _ = shell_sd_relative(RelativeComplex(k), k.vertices()[0])
        tilings.append((k, tiling))
    for k, tiling in tilings:
        census = critical_census(tiling).critical
        signed = sum((-1) ** i * n for i, n in census.items())
        if signed != k.euler():
            ok = False
        for i, bi in enumerate(mod2_betti(k)):
            if census.get(i, 0) < bi:
                ok = False
    assert report(6, "Euler and weak-Morse conservation audits", ok)


def test_criterion_7_negative_controls(pipeline_runs, tmp_path):
    """Each mutation class is caught with a witness: dependency-violating
    order swap, missing-face injection, census tampering."""
    k, f, tiling, _ = pipeline_runs[("circle", "trivial")]
    ok = True

    # order swap across a dependency
    tiles = list(tiling.tiles)
    tiles[0], tiles[-1] = tiles[-1], tiles[0]
    cert = verify_tiling(tiling.space, Tiling(tiling.space, tuple(tiles)))
    witnesses = [w for _, _, w in cert.failures if w is not None]
    if cert.shelling_ok or not witnesses:
        ok = False

    # missing-face injection, on a two-dimensional run so the two extra
    # vertex faces are genuinely of codimension two and incomparable
    _, _, tiling2, _ = pipeline_runs[("sphere", "trivial")]
    tiles = list(tiling2.tiles)
    first = tiles[0]
    verts = sorted(first.underlying.vertices)
    tiles[0] = MorseTile(
        first.underlying,
        first.missing_ridges | {Simplex([verts[0]]), Simplex([verts[1]])},
        first.morse_face,
    )
    cert = verify_tiling(tiling2.space, Tiling(tiling2.space, tuple(tiles)))
    if cert.tiles_ok or not any(w is not None for _, _, w in cert.failures):
        ok = False

    # census tampering through the file interface
    source = tmp_path / "circle.txt"
    source.write_text(dump_complex_text(RelativeComplex(k)))
    out = tmp_path / "t.jsonl"
    cli_run(["shell-sd2", str(source), "--morse", "trivial", "-o", str(out)])
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["summary"]["census"] = {"0": 1}
    lines[-1] = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    if cli_run(["verify", str(source), "--tiling", str(bad), "-o", "/dev/null"]) != 2:
        ok = False

    assert report(7, "negative controls are caught with witnesses", ok)
