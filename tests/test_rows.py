"""The two doors into a tiling: the engine's rows and ``MorseTile``s.

The engine builds its tilings from rows (vertex labels in key order, the
omitted-ridge mask, the Morse mask); ``Tiling(space, tiles)`` takes
``MorseTile``s and encodes them at construction.  On the sd² corpus and on
every criterion-3 join pair, a tiling rebuilt from its own ``tiles`` holds
the same rows and gets the same certificates, census and tile lines.  On
the broken tilings of the certificate tests, MorseTiles a row can hold
give the same bytes through rows, and the others keep the shape the
encoder derived.
"""
import pytest

from oracles import tile_lines_oracle
from test_certificates import _join_pairs, _mutations
from test_engine_kernel import RP2

from morseshell.catalog import boundary_sphere, cone_over_circle, moebius_torus, simplex_complex, two_triangles
from morseshell.engine import Tiling, shell_sd2_from_dmf, shell_sd_join
from morseshell.morse import greedy_collapse_dmf, trivial_dmf
from morseshell.serial import certificate_to_json, tiling_to_lines
from morseshell.tiles import MorseTile
from morseshell.verify import audit, critical_census, verify_tiling

SD2_CORPUS = {
    "torus": moebius_torus,
    "rp2": lambda: RP2,
    "bd4": lambda: boundary_sphere(3),
    "simplex-3": lambda: simplex_complex(3),
    "cone": cone_over_circle,
    "two-triangles": two_triangles,
}
FUNCTIONS = {"trivial": trivial_dmf, "greedy": greedy_collapse_dmf}


def _certificates(t, audited=None):
    """Certificate bytes of t, strong off and on, and of its audit."""
    out = []
    for strong in (False, True):
        out.append(certificate_to_json(verify_tiling(t.space, t, strong=strong)))
        if audited is not None:
            out.append(certificate_to_json(audit(*audited, t, strong=strong)))
    return out


def _assert_doors_agree(made, given, audited=None):
    """``given`` holds the same rows as ``made`` and gets the same
    certificates, census and lines."""
    assert given.rows == made.rows
    census = critical_census(made)
    assert critical_census(given) == census
    assert _certificates(given, audited) == _certificates(made, audited)
    assert tiling_to_lines(given, 2, census) == tiling_to_lines(made, 2, census)


@pytest.mark.parametrize("kind", sorted(FUNCTIONS))
@pytest.mark.parametrize("name", sorted(SD2_CORPUS))
def test_sd2_tiling_rebuilt_from_its_tiles_agrees_with_the_engine_rows(name, kind):
    k = SD2_CORPUS[name]()
    f = FUNCTIONS[kind](k)
    made, census = shell_sd2_from_dmf(k, f)
    assert census == critical_census(made)
    given = Tiling(made.space, made.tiles)
    assert given == made and len(given) == len(made)
    assert not given.kept_shapes
    _assert_doors_agree(made, given, audited=(k, f))


def test_join_tilings_rebuilt_from_their_tiles_agree_with_the_engine_rows():
    pairs = list(_join_pairs())
    assert len(pairs) == 318
    for t, tp in pairs:
        made = shell_sd_join(t, tp)[0]
        given = Tiling(made.space, made.tiles)
        assert not given.kept_shapes
        _assert_doors_agree(made, given)


@pytest.mark.parametrize("kind", sorted(FUNCTIONS))
@pytest.mark.parametrize("name", ["cone", "torus", "simplex-3"])
def test_broken_tilings_agree_through_rows_or_keep_their_shape(name, kind):
    k = SD2_CORPUS[name]()
    made, _ = shell_sd2_from_dmf(k, FUNCTIONS[kind](k))
    cases, kept = _mutations(made), set()
    for case, given in cases.items():
        census = critical_census(given)
        assert tiling_to_lines(given, 2, census)[:-1] == tile_lines_oracle(given), case
        if given.kept_shapes:
            kept.add(case)
            continue
        _assert_doors_agree(Tiling._of_rows(given.space, given.rows), given)
    # a vertex among the missing ridges of a tile of dimension two or more
    # is no ridge: no row holds it
    assert kept == {"incomparable", "nonridge"} & set(cases)


@pytest.mark.parametrize("kind", sorted(FUNCTIONS))
@pytest.mark.parametrize("name", sorted(SD2_CORPUS))
def test_a_certificate_is_ok_exactly_when_it_records_no_failure(name, kind):
    """On the tiling and each broken variant of it, strong off and on, in
    ``verify_tiling`` and in ``audit``."""
    k = SD2_CORPUS[name]()
    f = FUNCTIONS[kind](k)
    made, _ = shell_sd2_from_dmf(k, f)
    verdicts = set()
    for case, given in _mutations(made).items():
        for strong in (False, True):
            for cert in (verify_tiling(given.space, given, strong=strong), audit(k, f, given, strong=strong)):
                assert cert.ok == (not cert.failures), (case, strong)
                verdicts.add(cert.ok)
    assert verdicts == {True, False}


def test_a_tile_a_row_cannot_hold_keeps_its_shape_and_is_written_as_given():
    made, _ = shell_sd2_from_dmf(simplex_complex(2), trivial_dmf(simplex_complex(2)))
    tiles = list(made.tiles)
    t = tiles[0]
    vertex = t.underlying.without(t.underlying.vertices[0]).without(t.underlying.vertices[1])
    # a vertex of a triangle given as a "ridge": the Morse face it generates
    tiles[0] = MorseTile(t.underlying, frozenset({vertex}))
    given = Tiling(made.space, tiles)
    assert set(given.kept_shapes) == {0}
    shape = given.kept_shapes[0]
    assert shape.reason is None and shape.top == 0b100 and shape.restriction == 0
    lines = tiling_to_lines(given, 2, critical_census(given))
    assert lines[:-1] == tile_lines_oracle(given)
    assert '"ridges":[[' in lines[0] and '"morse_face":null' in lines[0]
