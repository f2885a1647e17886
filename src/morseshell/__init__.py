"""Morse shellings of second barycentric subdivisions, built from discrete
Morse functions and independently certified."""

from .labels import Label, atom, bary
from .complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    barycentric,
    barycentric_complex,
    join,
    make_complex,
    star_link,
)
from .tiles import MorseTile, NotAMorseTileError, TileClass, classify, tile_join
from .morse import (
    DiscreteMorseFunction,
    FiltrationStep,
    canonicalize,
    critical_faces,
    filtration,
    greedy_collapse_dmf,
    trivial_dmf,
    validate,
)
from .engine import (
    Tiling,
    shell_boundary_sd,
    shell_sd2_from_dmf,
    shell_sd_join,
    shell_sd_relative,
    shell_sd_tile,
)
from .verify import Census, Certificate, audit, critical_census, mod2_betti, verify_tiling

__version__ = "0.1.0"
