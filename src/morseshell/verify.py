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

The checks build no ``Simplex`` face set and use none of the tile calculus
the engine builds with.  A face is keyed by its vertex tuple, the
``itertools.combinations`` of a facet's sorted vertices; the space's faces
are those of the ambient facets minus those of the missing facets.  Within
a tile, a face is the bitmask of the positions of its vertices in the
tile's sorted vertex tuple, and masks are walked in key order (by size,
then lexicographically by position), the order of ``Simplex.faces()``, so
failures come out in the same order on every run.  The tile shape is
re-derived from the missing set by the rule in ``_shape``.  Witnesses are
``Simplex`` objects, built only when a check fails.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .complexes import RelativeComplex, Simplex, SimplicialComplex, barycentric
from .morse import DiscreteMorseFunction, critical_census as dmf_census
from .tiles import MorseTile

if TYPE_CHECKING:
    from .engine import Tiling

Key = Tuple  # a face as its sorted tuple of vertex labels

__all__ = [
    "Census",
    "Certificate",
    "verify_tiling",
    "critical_census",
    "mod2_betti",
    "audit",
]


@dataclass
class Census:
    """Critical tiles counted by index, and the number of regular tiles."""

    critical: Dict[int, int] = field(default_factory=dict)
    regular: int = 0

    def signed_count(self) -> int:
        return sum((-1) ** k * n for k, n in self.critical.items())


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


class _Shape(NamedTuple):
    """What a tile's missing set makes of the masks of its simplex.

    ``closure`` and ``owned`` select, in key order, the masks inside and
    outside the missing closure; ``index`` is the critical index, None for
    a regular tile; ``reason`` says why the missing set is not of Morse-tile
    shape, None when it is.
    """

    closure: Tuple[bool, ...]
    owned: Tuple[bool, ...]
    index: Optional[int]
    reason: Optional[str]


@lru_cache(maxsize=None)
def _masks(n: int) -> Tuple[int, ...]:
    """The masks of the faces of an (n-1)-simplex, in key order."""
    return tuple(
        sum(1 << i for i in c) for r in range(n + 1) for c in combinations(range(n), r)
    )


def _subsets(vs: Tuple) -> Iterator[Key]:
    """The face keys of a simplex with sorted vertices vs, in key order."""
    return chain.from_iterable(map(combinations, repeat(vs), range(len(vs) + 1)))


@lru_cache(maxsize=4096)
def _shape(n: int, generators: frozenset) -> _Shape:
    """The shape of an (n-1)-simplex whose missing set is generated by the
    given masks.

    The missing closure is the set of submasks of the generators.  Its
    codimension-one masks are the missing ridges, and the restriction mask
    is the set of vertices opposite them.  The residue is the closure masks
    that contain the restriction mask, i.e. those in no missing ridge; it
    must have one top containing all of it, the Morse face.  (The top has
    codimension at least two: a codimension-one closure mask is a ridge and
    misses a vertex of the restriction mask.)  With no residue the tile is
    basic: critical of index 0 when closed (order 0), of index n - 1 when
    open (order n), and regular otherwise.  With a top, the tile is critical
    of index = order when the top is the restriction mask (the dotted
    simplex is order 0 with top ∅), and regular otherwise.
    """
    masks = _masks(n)
    closure = {m for m in masks if any(m & g == m for g in generators)}
    full = (1 << n) - 1
    restriction = sum(1 << i for i in range(n) if full ^ (1 << i) in closure)
    order = restriction.bit_count()
    top = 0
    residue = False
    for m in closure:
        if m & restriction == restriction:
            top |= m
            residue = True
    reason = None
    if not residue:
        index = 0 if order == 0 else n - 1 if order == n else None
    elif top not in closure:
        index, reason = None, "missing set has two incomparable extra faces"
    else:
        index = order if top == restriction else None
    inside = tuple(m in closure for m in masks)
    return _Shape(inside, tuple(not x for x in inside), index, reason)


def _tile_shape(tile: MorseTile) -> _Shape:
    """The shape of a tile's missing set.  A generator that is not a proper
    face of the tile fails the shape check; its missing closure is then
    what lies under the generators' parts inside the tile."""
    vs = tile.underlying.vertices
    full = (1 << len(vs)) - 1
    bit = dict(zip(vs, map((1).__lshift__, range(len(vs)))))
    generators = list(tile.missing_ridges)
    if tile.morse_face is not None:
        generators.append(tile.morse_face)
    masks = []
    improper = []
    for g in generators:
        m = sum(map(bit.get, g.vertices, repeat(0)))
        if m == full or m.bit_count() != len(g.vertices):
            improper.append(g)
        masks.append(m)
    shape = _shape(len(vs), frozenset(masks))
    if improper:
        g = min(improper, key=lambda g: g.key)
        return shape._replace(index=None, reason=f"{g!r} is not a proper face of {tile.underlying!r}")
    return shape


def _face_keys(facets: Iterable[Simplex]) -> Set[Key]:
    """The keys of every face of the given facets, the empty face included."""
    keys: Set[Key] = set()
    for f in facets:
        keys.update(_subsets(f.vertices))
    return keys


def _euler(keys: Iterable[Key]) -> int:
    """Alternating count of the non-empty faces."""
    return sum((-1) ** (r - 1) * n for r, n in Counter(map(len, keys)).items() if r)


def _count(census: Census, shape: _Shape) -> None:
    if shape.index is None:
        census.regular += 1
    else:
        census.critical[shape.index] = census.critical.get(shape.index, 0) + 1


def critical_census(t: Tiling) -> Census:
    """Counts of critical tiles by index; every other tile, a malformed one
    included, counts as regular."""
    census = Census()
    for tile in t.tiles:
        _count(census, _tile_shape(tile))
    return census


def verify_tiling(
    s: RelativeComplex,
    t: Tiling,
    strong: bool = False,
    homology_of: Optional[RelativeComplex] = None,
) -> Certificate:
    """Check that t is a Morse shelling of s; failures carry witnesses.

    The census is checked against the homology of ``homology_of``, by
    default s itself.  Euler and Betti numbers are invariant under
    subdivision, so a tiling of sd^d(K) may be checked against K.
    """
    cert = Certificate()
    space, owner = _check_tiles(cert, s, t)
    if homology_of is None:
        homology_of, keys = s, space
    else:
        keys = _face_keys(homology_of.ambient.facets) - _face_keys(homology_of.missing.facets)
    _check_homology(cert, _euler(keys), homology_of)
    if strong:
        cert.strong_ok = _strong_condition(space, owner, t)
    return cert


def _check_tiles(cert: Certificate, s: RelativeComplex, t: Tiling) -> Tuple[Set[Key], Dict[Key, int]]:
    """Partition, shelling and tile-shape checks, plus the tile census.

    Returns the space's face keys and the owner map, which sends each face
    of the space to the first tile that claims it.
    """
    missing = _face_keys(s.missing.facets)
    space = _face_keys(s.ambient.facets)
    space -= missing
    facets = {f.vertices for f in s.ambient.facets}

    owner: Dict[Key, int] = {}
    shapes: List[_Shape] = []
    for p, tile in enumerate(t.tiles):
        shape = _tile_shape(tile)
        shapes.append(shape)
        _count(cert.census, shape)
        vs = tile.underlying.vertices
        if vs not in facets:
            cert._fail("partition_ok", p, "tile not anchored at an ambient facet", tile.underlying)
            continue
        if shape.reason is not None:
            cert._fail("tiles_ok", p, f"not a Morse tile: {shape.reason}", tile.underlying)
        for key in compress(_subsets(vs), shape.owned):
            if key not in space:
                cert._fail("partition_ok", p, "tile claims a face outside the complex", Simplex(key))
            elif key in owner:
                cert._fail("partition_ok", p, f"face also owned by tile {owner[key]}", Simplex(key))
            else:
                owner[key] = p
    if len(owner) < len(space):
        for face in sorted(map(Simplex, space - owner.keys()), key=lambda f: f.key):
            cert._fail("partition_ok", None, "face not covered by any tile", face)

    # A face a tile owns is its own, an earlier tile's or in L, so an
    # anchored tile needs only its missing closure walked.
    for p, tile in enumerate(t.tiles):
        vs = tile.underlying.vertices
        walk = compress(_subsets(vs), shapes[p].closure) if vs in facets else _subsets(vs)
        for key in walk:
            if key in missing:
                continue
            q = owner.get(key)
            if q is None or q > p:
                cert._fail("shelling_ok", p, "closure face owned later or never", Simplex(key))
                break
    return space, owner


def _check_homology(cert: Certificate, euler: int, s: RelativeComplex) -> None:
    """The certificate's census against s: its signed count must be the
    Euler characteristic ``euler`` of s, and for an absolute s each
    census[k] at least the k-th mod-2 Betti number."""
    signed = cert.census.signed_count()
    if signed != euler:
        cert._fail("euler_ok", None, f"signed census {signed} != Euler {euler}", None)
    if s.is_absolute and not s.ambient.is_void:
        for k, b in enumerate(mod2_betti(s.ambient)):
            n = cert.census.critical.get(k, 0)
            if n < b:
                cert._fail("morse_inequalities_ok", None, f"census[{k}] = {n} < betti {b}", None)


def _strong_condition(space: Set[Key], owner: Dict[Key, int], t: Tiling) -> bool:
    """Unions of tiles of dimension > d are relative subcomplexes, for every
    tile dimension d.

    That holds iff no face of the space has a ridge in the space owned by a
    tile of smaller dimension: every face between a face G of K \\ L and
    a coface F of it lies in K \\ L, since L is downward closed.  A ridge
    no tile owns counts as owned at the smallest tile dimension, the lowest
    d checked.
    """
    dims = [tile.dim for tile in t.tiles]
    floor = min(dims, default=0)
    for key, p in owner.items():
        d = dims[p]
        if d == floor:
            continue
        for i in range(len(key)):
            ridge = key[:i] + key[i + 1:]
            if ridge in space:
                q = owner.get(ridge)
                if (floor if q is None else dims[q]) < d:
                    return False
    return True


def mod2_betti(k: SimplicialComplex) -> Tuple[int, ...]:
    """Ranks of mod-2 simplicial homology via boundary-matrix ranks, on
    face keys."""
    if k.is_void or k.dim < 0:
        return ()
    by_dim: List[List[Key]] = [[] for _ in range(k.dim + 1)]
    for key in _face_keys(k.facets):
        if key:
            by_dim[len(key) - 1].append(key)
    ranks = [0] * (k.dim + 2)
    for d in range(1, k.dim + 1):
        index = {key: i for i, key in enumerate(by_dim[d - 1])}
        cols = [
            sum(1 << index[key[:i] + key[i + 1:]] for i in range(d + 1))
            for key in by_dim[d]
        ]
        ranks[d] = _gf2_rank(cols)
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(k.dim + 1))


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

    ``verify_tiling`` checks the tiles against the space the tiling names
    and the census against the homology of K.  On top of that, the space
    must equal sd²(K) as ``barycentric`` gives it from K (built once per
    complex object and kept), and the critical-tile census must match the
    critical-face census of f index by index.
    """
    s = RelativeComplex(k)
    cert = verify_tiling(t.space, t, strong, homology_of=s)
    if t.space != barycentric(barycentric(s)):
        cert.partition_ok = False
        cert.failures.insert(0, (None, "tiling names a space other than sd²(K)", None))
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
