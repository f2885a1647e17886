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

Every failing check records a failure (tile, reason, witness), and the
certificate is ok exactly when it holds none (``Certificate.ok``); the
flags only say which checks failed.  ``audit`` and the ``verify`` command
record the failures of their own checks on the same list, so ``ok`` is the
one verdict every caller exits on.  Every row has Morse-tile shape (an
omitted-ridge mask and a proper Morse face always make a Morse tile), so
only a ``MorseTile`` given in memory to ``Tiling(space, tiles)`` can fail
``tiles_ok``; no tiling file can, since its reader
(``serial.tiling_from_lines``) takes rows only.

The checks build no ``Simplex`` face set of the tiled space and use none
of the tile calculus the engine builds with.  A face is keyed by its vertex
tuple, listed, counted and ordered by the face rules of ``complexes``
(``_subsets``, ``_face_keys``, ``_euler``, ``_sorted_by_key``), and the
space is read through its facet keys (``SimplicialComplex.facet_keys``).
On an honest tiling only the faces of the missing part L are enumerated:
the tiles claim the space's faces in one walk, and coverage follows from
the shelling check (``_check_tiles``).  The space's faces, those of the
ambient facets minus L's, are listed only when that argument fails, to
name the faces no tile covers.  The shelling check reads each tile's at
most n + 1 generators, not its missing closure: while every earlier tile
passed, the faces of L and of the earlier tiles form a subcomplex, so a
closure whose generators lie in it lies in it whole.  A closure is walked
face by face only where that argument stops, so failures and witnesses
are those of a walk over every closure.

The verifier reads a tiling's rows (``Tiling.rows``): each tile's vertex
labels in key order, the mask of the positions whose ridge is missing (bit
i is the ridge omitting vertex i) and the Morse face's position mask, -1
for a basic tile.  The engine's tilings are rows; ``MorseTile``s given from
outside become rows through ``_encode``, which also keeps the shape of a
tile whose generators a row cannot hold (a "ridge" of another
codimension, a generator that is no proper face of the tile).  Within a
tile, a face is the bitmask of its positions, and masks are walked in key
order (by size, then lexicographically by position), the order of
``Simplex.faces()``, so failures come out in the same order on every run.
The tile shape is re-derived from the masks by the rule in ``_shape``, the
package's one classification rule, looked up per row in a cache keyed on
the masks (``_row_shape``): the census, the certificates, the tile lines'
``class`` and ``MorseTile.tile_class`` all come from it, and
``tiles.classify`` recovers tiles by it.  It reads the at most n + 1
generators of a tile on n vertices, never the 2^n masks of its simplex,
so classifying, printing or counting a wide tile stays cheap.  The masks
of a shape's closure (``_closure``) are listed once per shape, for the
pickers that build a tile's owned faces and generators from its key
(``_pickers``), and per tile only where the shelling walk falls back.
Witnesses are ``Simplex`` objects, built only when a check fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .complexes import RelativeComplex, Simplex, SimplicialComplex, _simplex, barycentric
from .complexes import Key, _euler, _face_keys, _sorted_by_key, _subsets  # the face rules
from .morse import DiscreteMorseFunction, critical_census as dmf_census

if TYPE_CHECKING:
    from .engine import Tiling
    from .tiles import MorseTile

Row = Tuple[Tuple, int, int]  # vertices in key order, omitted-ridge mask, Morse mask

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
    """Critical tiles counted by index, and the number of regular tiles;
    ``indices`` holds each tile's critical index in shelling order, None
    for a regular tile."""

    critical: Dict[int, int] = field(default_factory=dict)
    regular: int = 0
    indices: List[Optional[int]] = field(default_factory=list)

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
        """The one verdict: no check recorded a failure."""
        return not self.failures

    def _fail(self, flag: str, index: Optional[int], reason: str, witness: Optional[Simplex] = None):
        setattr(self, flag, False)
        self.failures.append((index, reason, witness))


class _Shape(NamedTuple):
    """What a tile's missing set makes of its simplex.

    ``generators`` are the position masks the missing set was given by;
    ``index`` is the critical index, None for a regular tile; ``reason``
    says why the missing set is not of Morse-tile shape, None when it is.
    ``restriction`` is the mask of the vertices opposite the missing ridges,
    and ``top`` the Morse face's mask, -1 when the missing set has no
    residue.  The masks inside and outside the missing closure are
    ``_closure``'s.
    """

    generators: frozenset
    index: Optional[int]
    reason: Optional[str]
    restriction: int
    top: int


@lru_cache(maxsize=None)
def _masks(n: int) -> Tuple[int, ...]:
    """The masks of the faces of an (n-1)-simplex, in key order."""
    return tuple(sum(1 << i for i in c) for c in _subsets(tuple(range(n))))


def _shape(n: int, generators: frozenset) -> _Shape:
    """The shape of an (n-1)-simplex whose missing set is generated by the
    given masks, read off the generators alone.

    The missing closure is the set of submasks of the generators.  A ridge
    is maximal among the proper faces, so it lies in the closure only when
    it is a generator or the whole simplex is one; the restriction mask is
    the set of vertices opposite the missing ridges (every vertex when the
    whole simplex is a generator).  The residue is the closure masks that
    contain the restriction mask, i.e. those in no missing ridge; its
    maximal elements are generators, so its top, the OR of the generators
    containing the restriction mask, lies in the closure exactly when it is
    one of them: the Morse face.  (The top has codimension at least two: a
    codimension-one closure mask is a ridge and misses a vertex of the
    restriction mask.)  With no residue the tile is basic: critical of
    index 0 when closed (order 0), of index n - 1 when open (order n), and
    regular otherwise.  With a top, the tile is critical of index = order
    when the top is the restriction mask (the dotted simplex is order 0
    with top ∅), and regular otherwise.
    """
    full = (1 << n) - 1
    if full in generators:
        restriction = full
    else:
        restriction = 0
        for g in generators:
            if g.bit_count() == n - 1:
                restriction |= full ^ g
    order = restriction.bit_count()
    above = [g for g in generators if g & restriction == restriction]
    top = 0
    for g in above:
        top |= g
    reason = None
    if not above:
        index, top = (0 if order == 0 else n - 1 if order == n else None), -1
    elif top not in above:
        index, reason = None, "missing set has two incomparable extra faces"
    else:
        index = order if top == restriction else None
    return _Shape(generators, index, reason, restriction, top)


@lru_cache(maxsize=4096)
def _closure(n: int, generators: frozenset) -> Tuple[Tuple[bool, ...], Tuple[bool, ...]]:
    """Which masks of an (n-1)-simplex, in key order, lie inside the
    closure of the generators, and which outside it.  This lists all 2^n
    masks, so it is read once per shape (``_pickers``) and by the
    verifier's fallback walk, which lists those faces anyway."""
    inside = tuple(any(m & g == m for g in generators) for m in _masks(n))
    return inside, tuple(not x for x in inside)


def _picker(n: int, mask: int) -> Callable[[Key], Key]:
    """The face at the positions of mask, taken from a key of n vertices;
    a slice keeps a face of one vertex, or none, a tuple."""
    ps = [i for i in range(n) if mask >> i & 1]
    if len(ps) > 1:
        return itemgetter(*ps)
    return itemgetter(slice(ps[0], ps[0] + 1) if ps else slice(0))


@lru_cache(maxsize=4096)
def _pickers(n: int, generators: frozenset) -> Tuple[Tuple[Callable[[Key], Key], ...], Tuple[Callable[[Key], Key], ...]]:
    """Pickers of the faces an (n-1)-simplex owns, those outside the
    closure of the generators, in key order, and of the generators
    themselves.  A tile's faces are then built from its key without
    listing the faces of its missing closure."""
    owned = compress(_masks(n), _closure(n, generators)[1])
    return tuple(_picker(n, m) for m in owned), tuple(_picker(n, g) for g in generators)


@lru_cache(maxsize=None)
def _bits(n: int) -> Tuple[int, ...]:
    """The position bits of an (n-1)-simplex's vertices."""
    return tuple(1 << i for i in range(n))


@lru_cache(maxsize=4096)
def _row_shape(n: int, omitted: int, morse: int) -> _Shape:
    """The shape of a row on n vertices: ``_shape`` of its generators, the
    ridges omitting its omitted positions and its Morse face."""
    full = (1 << n) - 1
    generators = [full ^ b for b in _bits(n) if omitted & b]
    if morse >= 0:
        generators.append(morse)
    return _shape(n, frozenset(generators))


def _encode(tile: MorseTile) -> Tuple[Row, Optional[_Shape]]:
    """A MorseTile as a row over its sorted vertices, and None; or, for a
    tile whose generators a row cannot hold, the row of its shape's
    restriction and top, and that shape.

    A row holds the tile when every missing ridge is a ridge of its simplex
    and the Morse face a proper face of it.  Otherwise the shape is that of
    the generators' masks, and a generator that is not a proper face of the
    tile fails it; the tile's missing closure is then what lies under the
    generators' parts inside the tile.
    """
    vs = tile.underlying.vertices
    n = len(vs)
    full = (1 << n) - 1
    bit = dict(zip(vs, _bits(n)))
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
    ridges = masks[:len(tile.missing_ridges)]
    if not improper and all(m.bit_count() == n - 1 for m in ridges):
        omitted = 0
        for m in ridges:
            omitted |= full ^ m
        return (vs, omitted, -1 if tile.morse_face is None else masks[-1]), None
    shape = _shape(n, frozenset(masks))
    if improper:
        g = _sorted_by_key(improper)[0]
        shape = shape._replace(index=None, reason=f"{g!r} is not a proper face of {tile.underlying!r}")
    return (vs, shape.restriction, shape.top), shape


def _tile_shape(tile: MorseTile) -> _Shape:
    """The shape of a MorseTile's missing set, through its row."""
    (vs, omitted, morse), shape = _encode(tile)
    return shape or _row_shape(len(vs), omitted, morse)


def _count(census: Census, index: Optional[int]) -> None:
    census.indices.append(index)
    if index is None:
        census.regular += 1
    else:
        census.critical[index] = census.critical.get(index, 0) + 1


def critical_census(t: Tiling) -> Census:
    """Counts of critical tiles by index; every other tile, a malformed one
    included, counts as regular, and so does a tile anchored at no facet
    of the tiled space's ambient complex, as ``_check_tiles`` counts it."""
    census = Census()
    kept = t.kept_shapes
    anchors = set(t.space.ambient.facet_keys)
    for p, (vs, omitted, morse) in enumerate(t.rows):
        if vs in anchors:
            _count(census, (kept.get(p) or _row_shape(len(vs), omitted, morse)).index)
        else:
            _count(census, None)
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
    space, owner, missing = _check_tiles(cert, s, t)
    if homology_of is None:
        _check_homology(cert, _euler(space), s)
    else:
        _check_homology(cert, homology_of.euler(), homology_of)
    if strong:
        d = _strong_failure(missing, owner, t)
        cert.strong_ok = d is None
        if d is not None:
            cert.failures.append((None, f"tiles of dimension above {d} do not form a subcomplex", None))
    return cert


def _check_tiles(cert: Certificate, s: RelativeComplex, t: Tiling) -> Tuple[Collection[Key], Dict[Key, int], Set[Key]]:
    """Partition, shelling and tile-shape checks and the census, in one walk
    over the tiling's rows.

    Each anchored row, one whose key is a facet key of K, gets its shape by
    its masks (``_row_shape``, or the shape the encoder kept for a tile no
    row holds) and claims its owned faces, built from its key by pickers
    cached per shape (``_pickers``); they must be outside L and unclaimed.
    The shelling check then reads the row's generators alone: each must be
    owned by an earlier tile or lie in L.  That is enough: let U_p be L
    plus the faces owned before row p.  U_0 = L is closed under faces; if
    U_p is, and holds every generator of row p, it holds the whole missing
    closure, the faces under the generators, and U_{p+1} adds the faces of
    the simplex outside that closure, so it is closed under faces again.
    Where the argument stops, at a row whose generator check fails and at
    every row after the first gap, the row's missing closure is walked in
    key order (``_closure``), and its first face neither owned yet nor in
    L is the shelling gap; so the failures and their witnesses are those
    of a walk over every closure.  An unanchored row is no tile of the
    space: it counts as regular, gets no shape, and its whole simplex is
    walked.
    Coverage follows: a face of K \\ L lies in an ambient facet F, a tile
    owning F is anchored at F, and so with no gap it owns the face or found
    it owned.  Only with a gap or an unowned facet are K \\ L's faces
    listed, to name the uncovered ones.  Returns the space's face keys, the
    owner map (each face of the space to the first tile claiming it) and
    L's face keys.
    """
    missing = _face_keys(s.missing.facet_keys)
    facets = set(s.ambient.facet_keys)
    owner: Dict[Key, int] = {}
    gaps: List[Tuple[int, Key]] = []
    kept = t.kept_shapes
    for p, (vs, omitted, morse) in enumerate(t.rows):
        if vs in facets:
            n = len(vs)
            shape = kept.get(p) or _row_shape(n, omitted, morse)
            _count(cert.census, shape.index)
            if shape.reason is not None:
                cert._fail("tiles_ok", p, f"not a Morse tile: {shape.reason}", _simplex(vs))
            owned, generators = _pickers(n, shape.generators)
            for pick in owned:
                key = pick(vs)
                if missing and key in missing:
                    cert._fail("partition_ok", p, "tile claims a face outside the complex", Simplex(key))
                    continue
                q = owner.setdefault(key, p)
                if q != p:
                    cert._fail("partition_ok", p, f"face also owned by tile {q}", Simplex(key))
            held = (pick(vs) for pick in generators)
            if not gaps and all(key in owner or key in missing for key in held):
                continue
            walk = compress(_subsets(vs), _closure(n, shape.generators)[0])
        else:
            cert._fail("partition_ok", p, "tile not anchored at an ambient facet", _simplex(vs))
            _count(cert.census, None)
            walk = _subsets(vs)
        for key in walk:
            if key not in owner and key not in missing:
                gaps.append((p, key))
                break
    space: Collection[Key] = owner.keys()
    if gaps or not facets <= space:
        space = _face_keys(s.ambient.facet_keys) - missing
        for face in _sorted_by_key([Simplex(key) for key in space - owner.keys()]):
            cert._fail("partition_ok", None, "face not covered by any tile", face)
    for p, key in gaps:
        cert._fail("shelling_ok", p, "closure face owned later or never", Simplex(key))
    return space, owner, missing


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


def _strong_failure(missing: Set[Key], owner: Dict[Key, int], t: Tiling) -> Optional[int]:
    """The smallest tile dimension d for which the union of the tiles of
    dimension > d is not a relative subcomplex, or None.

    That union fails iff a face of the space in it has a ridge in the space
    owned by a tile of dimension at most d: every face between a face G of
    K \\ L and a coface F of it lies in K \\ L, since L is downward closed.
    A ridge no tile owns counts as owned at the smallest tile dimension.
    """
    dims = [len(vs) - 1 for vs, _, _ in t.rows]
    floor = min(dims, default=0)
    lower = []
    for key, p in owner.items():
        for i in range(len(key)):
            ridge = key[:i] + key[i + 1:]
            if ridge not in missing:
                q = owner.get(ridge)
                e = floor if q is None else dims[q]
                if e < dims[p]:
                    lower.append(e)
    return min(lower, default=None)


def mod2_betti(k: SimplicialComplex) -> Tuple[int, ...]:
    """Ranks of mod-2 simplicial homology via boundary-matrix ranks, on
    face keys."""
    if k.is_void or k.dim < 0:
        return ()
    by_dim: List[List[Key]] = [[] for _ in range(k.dim + 1)]
    for key in _face_keys(k.facet_keys):
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


def audit(k: SimplicialComplex, f: DiscreteMorseFunction, t: Tiling, strong: bool = False) -> Certificate:
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
    got, expected = cert.census.critical, dmf_census(k, f)
    cert.census_matches_function = got == expected
    for i in sorted(set(got) | set(expected)):
        if got.get(i, 0) != expected.get(i, 0):
            cert.failures.append(
                (None, f"census[{i}] = {got.get(i, 0)} but f has {expected.get(i, 0)} critical faces", None)
            )
    return cert
