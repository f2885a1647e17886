"""Golden bytes of the sd² pipeline.

The sha256 of ``tiling_to_lines(shell_sd2_from_dmf(k, f))`` on a small
corpus that reaches every kind of filtration step: vertex critical steps
after the first one, with and without a link (the isolated vertex c);
critical faces with an empty link; both stages of a collapse step, with and
without a link and a boundary base (the cone and the 2-sphere under
``greedy``); a matching on the triangle whose collapse steps shell blocks
with a dotted part, where regrouping the entries of a one-sided block
would change the bytes; the torus under ``trivial``; and Δ⁴ under
``greedy``, 14,400 tiles, whose digest is that of the whole file the
``shell-sd2`` command writes.  A refactor of the engine must leave these
bytes unchanged.
"""
import hashlib

import pytest

from morseshell.catalog import boundary_sphere, cone_over_circle, moebius_torus, simplex_complex
from morseshell.complexes import Simplex, make_complex
from morseshell.engine import shell_sd2_from_dmf
from morseshell.morse import dmf_from_matching, greedy_collapse_dmf, trivial_dmf
from morseshell.serial import tiling_to_lines


def triangle_matching(k):
    pairs = [("bc", "abc"), ("c", "ac"), ("b", "ab")]
    return dmf_from_matching(k, [(Simplex(f), Simplex(g)) for f, g in pairs])


GOLDEN = [
    ("edge-and-point-trivial", lambda: make_complex([["a", "b"], ["c"]]), trivial_dmf, 5,
     "1c6cc443e285a592290ce85cd232d19b11b557d23381e5eacd8ec5d9d48f33aa"),
    ("cone-greedy", cone_over_circle, greedy_collapse_dmf, 108,
     "06545495fed34fea878e689988a367bbf67a53ad3adc329f529d245f91d8b3d3"),
    ("sphere-greedy", lambda: boundary_sphere(2), greedy_collapse_dmf, 144,
     "587113924786f0f789a94d0bb744256576a667464b1f43d96b7d06e9fd66920d"),
    ("triangle-matching", lambda: simplex_complex(2), triangle_matching, 36,
     "036868cb1b8a5540dff6dc0eab5823043d04a045cc04347b1575af3f0e3b112b"),
    ("torus-trivial", moebius_torus, trivial_dmf, 504,
     "b7f3167fc84ff525cc6934874516fdde0c5c020832771b13e7053090919626ee"),
    # the whole file `morseshell shell-sd2` writes for Δ⁴ under greedy
    ("simplex-4-greedy", lambda: simplex_complex(4), greedy_collapse_dmf, 14400,
     "208d2feae55815f071ce333e86f8b195addf19cea0d486f5bee65df5ecaa5938"),
]


@pytest.mark.parametrize("build,function,n_tiles,digest",
                         [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_sd2_tiling_bytes_are_golden(build, function, n_tiles, digest):
    k = build()
    tiling, census = shell_sd2_from_dmf(k, function(k))
    lines = tiling_to_lines(tiling, 2, census)
    assert len(tiling.tiles) == n_tiles
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest
