"""The tiling line encoder against the reference encoder in ``oracles``.

``tiling_to_lines`` assembles each tile line from per-label texts and sorts
the ridges by their compact text; the reference builds each tile's record
as a dict and sorts the ridges by ``json.dumps`` with its default ``", "``
separator.  Atom names holding commas, quotes, backslashes, spaces and
non-ASCII characters put escapes and in-name commas where separators sit
in other labels, so a wrong ridge order or escape shows here.
"""
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell.catalog import moebius_torus
from morseshell.engine import Tiling, shell_sd2_from_dmf
from morseshell.morse import greedy_collapse_dmf, trivial_dmf
from morseshell.serial import _checksum, load_complex_json, tiling_from_lines, tiling_to_lines
from morseshell.verify import Census

from oracles import tile_lines_oracle

ODD_NAMES = ["a,b", "a, b", '", "', 'q"x', "back\\slash", "sp ace", "ü", "日本", "a,!", "a"]


def assert_lines_match_the_reference(facets, dmf):
    k = load_complex_json(json.dumps({"facets": facets})).ambient
    tiling, census = shell_sd2_from_dmf(k, dmf(k))
    lines = tiling_to_lines(tiling, 2, census)
    assert lines[:-1] == tile_lines_oracle(tiling)
    assert len(lines) == len(tiling.tiles) + 1


def test_lines_match_the_reference_on_odd_atom_names():
    n = ODD_NAMES
    sphere = [[n[i], n[j], n[k]] for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
    fan = [[n[4], n[5], n[6]], [n[4], n[6], n[7]], [n[7], n[8]], [n[8], n[9]]]
    for facets in (sphere, fan):
        for dmf in (trivial_dmf, greedy_collapse_dmf):
            assert_lines_match_the_reference(facets, dmf)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.lists(st.text(alphabet=',"\\ !abé\x1f[]', min_size=1, max_size=4),
                min_size=3, max_size=3, unique=True))
def test_lines_match_the_reference_on_generated_atom_names(names):
    assert_lines_match_the_reference([names, names[:2] + ["c"]], trivial_dmf)


def test_lines_take_the_class_from_the_census_of_the_same_tiling():
    """``class`` comes from the census's per-tile indices, so a census of
    another length is refused rather than written against the wrong tiles."""
    k = load_complex_json(json.dumps({"facets": [["a", "b"], ["b", "c"]]})).ambient
    tiling, census = shell_sd2_from_dmf(k, trivial_dmf(k))
    assert len(census.indices) == len(tiling.tiles)
    short = Census(census.critical, census.regular, census.indices[:-1])
    for wrong in (short, Census()):
        with pytest.raises(ValueError, match="census classifies"):
            tiling_to_lines(tiling, 2, wrong)


def test_the_writer_and_the_reader_take_one_checksum():
    """The summary's checksum as written is the reader's, the SHA-256 of
    the tile lines joined and closed by newlines: on the empty tiling and
    on the torus's sd² tiling."""
    k = moebius_torus()
    made, census = shell_sd2_from_dmf(k, greedy_collapse_dmf(k))
    for tiling, counted in ((Tiling(made.space, ()), Census()), (made, census)):
        lines = tiling_to_lines(tiling, 2, counted)
        tile_lines = lines[:-1]
        digest = hashlib.sha256(("\n".join(tile_lines) + "\n").encode()).hexdigest()
        assert json.loads(lines[-1])["summary"]["checksum"] == _checksum(tile_lines) == f"sha256:{digest}"
        assert tiling_from_lines(lines)[3] is True
