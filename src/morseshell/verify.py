"""Independent certification of tilings.

The constructions in the engine are never trusted: every tiling is checked
here face by face.  A certificate records three structural checks plus two
conservation audits:

* partition: every face of the relative complex lies in exactly one tile,
  every tile sits on a facet of the ambient complex, and no tile claims a
  face that is not there (the empty face included);
* shelling: no face of a tile's closed simplex is owned by a later tile;
* tiles: every tile's missing set has Morse-tile shape;
* euler: the signed critical census sums to the Euler characteristic;
* weak Morse inequalities: census[k] is at least the k-th mod-2 Betti
  number (checked for absolute spaces).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import RelativeComplex, Simplex, SimplicialComplex, barycentric
from .engine import Census, Tiling
from .morse import DiscreteMorseFunction, critical_census as dmf_census
from .tiles import MorseTile, NotAMorseTileError, classify

__all__ = [
    "Certificate",
    "verify_tiling",
    "critical_census",
    "mod2_betti",
    "audit",
]


@dataclass
class Certificate:
    partition_ok: bool = True
    shelling_ok: bool = True
    tiles_ok: bool = True
    census: Census = field(default_factory=Census)
    euler_ok: bool = True
    morse_inequalities_ok: bool = True
    strong_ok: Optional[bool] = None
    census_matches_function: Optional[bool] = None
    failures: List[Tuple[Optional[int], str, Optional[Simplex]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.partition_ok
            and self.shelling_ok
            and self.tiles_ok
            and self.euler_ok
            and self.morse_inequalities_ok
            and self.census_matches_function is not False
            and self.strong_ok is not False
        )

    def _fail(self, flag: str, index: Optional[int], reason: str, witness: Optional[Simplex] = None):
        setattr(self, flag, False)
        self.failures.append((index, reason, witness))


def critical_census(t: Tiling) -> Census:
    """Counts of critical tiles by index, regular tiles aside."""
    census = Census()
    for tile in t.tiles:
        try:
            cls = tile.tile_class()
        except NotAMorseTileError:
            continue
        if cls.is_critical:
            census.critical[cls.index] = census.critical.get(cls.index, 0) + 1
        else:
            census.regular += 1
    return census


def verify_tiling(s: RelativeComplex, t: Tiling, strong: bool = False) -> Certificate:
    """Check that t is a Morse shelling of s; failures carry witnesses."""
    cert = Certificate()
    _check_tiles(cert, s, t)
    _check_homology(cert, s)
    if strong:
        cert.strong_ok = _strong_condition(s, t)
    return cert


def _check_tiles(cert: Certificate, s: RelativeComplex, t: Tiling) -> None:
    """Partition, shelling and tile-shape checks, plus the tile census."""
    faces = s.faces()
    ambient_facets = set(s.ambient.facets)
    missing_faces = s.missing.faces()

    owner: Dict[Simplex, int] = {}
    for p, tile in enumerate(t.tiles):
        if tile.underlying not in ambient_facets:
            cert._fail("partition_ok", p, "tile not anchored at an ambient facet", tile.underlying)
            continue
        try:
            classify(tile.underlying, tile.missing_faces())
        except NotAMorseTileError as err:
            cert._fail("tiles_ok", p, f"not a Morse tile: {err}", tile.underlying)
        for face in tile.faces():
            if face not in faces:
                cert._fail("partition_ok", p, "tile claims a face outside the complex", face)
            elif face in owner:
                cert._fail("partition_ok", p, f"face also owned by tile {owner[face]}", face)
            else:
                owner[face] = p
    for face in sorted(faces - set(owner), key=lambda f: f.key):
        cert._fail("partition_ok", None, "face not covered by any tile", face)

    for p, tile in enumerate(t.tiles):
        for face in tile.underlying.faces():
            if face in missing_faces:
                continue
            q = owner.get(face)
            if q is None or q > p:
                cert._fail("shelling_ok", p, "closure face owned later or never", face)
                break

    cert.census = critical_census(t)


def _check_homology(cert: Certificate, s: RelativeComplex) -> None:
    """The certificate's census against s: its signed count must be the
    Euler characteristic, and for an absolute s each census[k] at least the
    k-th mod-2 Betti number.  Both are invariant under subdivision, so a
    tiling of sd²(K) is checked against K itself."""
    signed = cert.census.signed_count()
    if signed != s.euler():
        cert._fail("euler_ok", None, f"signed census {signed} != Euler {s.euler()}", None)
    if s.is_absolute and not s.ambient.is_void:
        for k, b in enumerate(mod2_betti(s.ambient)):
            n = cert.census.critical.get(k, 0)
            if n < b:
                cert._fail("morse_inequalities_ok", None, f"census[{k}] = {n} < betti {b}", None)


def _strong_condition(s: RelativeComplex, t: Tiling) -> bool:
    """Unions of tiles of dimension > d are relative subcomplexes, for all d."""
    dims = sorted({tile.dim for tile in t.tiles})
    for d in dims:
        covered = set()
        for tile in t.tiles:
            if tile.dim > d:
                covered.update(tile.faces())
        for face in covered:
            for sub in face.faces():
                if sub not in covered and sub in s.faces():
                    return False
    return True


def mod2_betti(k: SimplicialComplex) -> Tuple[int, ...]:
    """Ranks of mod-2 simplicial homology via boundary-matrix ranks."""
    if k.is_void or k.dim < 0:
        return ()
    by_dim: List[List[Simplex]] = [[] for _ in range(k.dim + 1)]
    for s in k.faces():
        if not s.is_empty:
            by_dim[s.dim].append(s)
    for row in by_dim:
        row.sort(key=lambda s: s.key)
    index = [{s: i for i, s in enumerate(row)} for row in by_dim]
    ranks = [0] * (k.dim + 2)
    for d in range(1, k.dim + 1):
        cols = []
        for s in by_dim[d]:
            bits = 0
            for r in s.ridges():
                bits |= 1 << index[d - 1][r]
            cols.append(bits)
        ranks[d] = _gf2_rank(cols)
    betti = []
    for d in range(k.dim + 1):
        betti.append(len(by_dim[d]) - ranks[d] - ranks[d + 1])
    return tuple(betti)


def _gf2_rank(columns: Sequence[int]) -> int:
    """Rank over GF(2) of bit-vector columns: reduce each column against
    the pivots, keyed by their leading bit, until it is zero or has a
    leading bit of its own."""
    pivots: Dict[int, int] = {}
    for col in columns:
        while col:
            lead = col.bit_length()
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = col
                break
            col ^= p
    return len(pivots)


def audit(
    k: SimplicialComplex,
    f: DiscreteMorseFunction,
    t: Tiling,
    strong: bool = False,
) -> Certificate:
    """Extended certificate for a tiling of sd²(K) built from f.

    The space the tiling names must equal sd²(K), rebuilt here from K; the
    tiles are checked against it face by face, and the Euler count and the
    weak Morse inequalities against K itself.  On top of that, the
    critical-tile census must match the critical-face census of f index by
    index.
    """
    cert = Certificate()
    if t.space != barycentric(barycentric(RelativeComplex(k))):
        cert._fail("partition_ok", None, "tiling names a space other than sd²(K)", None)
    _check_tiles(cert, t.space, t)
    _check_homology(cert, RelativeComplex(k))
    if strong:
        cert.strong_ok = _strong_condition(t.space, t)
    expected = dmf_census(k, f)
    got = {i: n for i, n in cert.census.critical.items() if n}
    cert.census_matches_function = got == {i: n for i, n in expected.items() if n}
    if not cert.census_matches_function:
        for i in sorted(set(got) | set(expected)):
            if got.get(i, 0) != expected.get(i, 0):
                cert.failures.append(
                    (None, f"census[{i}] = {got.get(i, 0)} but f has {expected.get(i, 0)} critical faces", None)
                )
    return cert
