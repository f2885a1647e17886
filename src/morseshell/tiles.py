"""Morse-tile calculus.

A basic tile of dimension n and order k is an n-simplex deprived of k of its
ridges; a Morse tile may further be deprived of one face of codimension at
least two (its Morse face), possibly the empty one.  Every face of a basic
tile of order k contains the restriction set: the (k-1)-face spanned by the
vertices opposite to the missing ridges.

Classification:

* a closed simplex (order 0, no Morse face) is critical of index 0;
* a simplex deprived only of its empty face ("dotted") is critical of index 0;
* an open simplex (all ridges missing) is critical of index dim;
* a tile whose Morse face equals the restriction set is critical of index =
  order; every other tile is regular.

For a vertex the empty simplex is its unique ridge, so the dotted vertex and
the open vertex are one and the same tile; the normal form stores it with
ridge set {∅}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional

from .complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    _simplex,
    closure_complex,
    void_complex,
)
from .labels import Label

__all__ = [
    "MorseTile",
    "TileClass",
    "CanonicalTriple",
    "NotAMorseTileError",
    "make_tile",
    "classify",
    "canonical_triple",
    "recompose",
    "tile_join",
    "cone",
    "tile_to_relative",
]


class NotAMorseTileError(ValueError):
    """The given missing set is not of Morse-tile shape."""


@dataclass(frozen=True)
class TileClass:
    is_critical: bool
    index: Optional[int] = None

    @staticmethod
    def regular() -> "TileClass":
        return TileClass(False, None)

    @staticmethod
    def critical(index: int) -> "TileClass":
        return TileClass(True, index)

    def __repr__(self) -> str:
        return f"Critical({self.index})" if self.is_critical else "Regular"


@dataclass(frozen=True)
class MorseTile:
    """A simplex minus some ridges and at most one deeper face.

    ``morse_face`` is None for basic tiles; it may be the empty simplex (the
    dotted case).  ``anchor`` optionally names the ambient facet the tile
    sits on; tile algebra ignores it.

    The dataclass itself does not validate; ``make_tile`` and ``classify``
    do, and the verifier re-derives every tile it is handed.
    """

    underlying: Simplex
    missing_ridges: FrozenSet[Simplex]
    morse_face: Optional[Simplex] = None
    anchor: Optional[Simplex] = None

    # -- structure -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.underlying.dim

    @property
    def order(self) -> int:
        return len(self.missing_ridges)

    @property
    def is_basic(self) -> bool:
        return self.morse_face is None

    @property
    def is_closed(self) -> bool:
        return self.order == 0 and self.morse_face is None

    @property
    def is_open(self) -> bool:
        return self.order == self.dim + 1 and self.morse_face is None

    def restriction_set(self) -> Simplex:
        """Face spanned by the vertices opposite to the missing ridges."""
        opposite = set()
        for r in self.missing_ridges:
            rest = self.underlying.minus(r)
            if len(rest) != 1:
                raise NotAMorseTileError(f"{r!r} is not a ridge of {self.underlying!r}")
            opposite.add(rest.vertices[0])
        return _simplex(tuple(v for v in self.underlying.vertices if v in opposite))

    def tile_class(self) -> TileClass:
        if self.is_basic:
            if self.order == 0:
                return TileClass.critical(0)
            if self.order == self.dim + 1:
                return TileClass.critical(self.dim)
            return TileClass.regular()
        if self.morse_face == self.restriction_set():
            return TileClass.critical(self.order)
        return TileClass.regular()

    def missing_faces(self) -> FrozenSet[Simplex]:
        """Downward closure of the missing set."""
        out = set()
        for r in self.missing_ridges:
            out.update(r.faces())
        if self.morse_face is not None:
            out.update(self.morse_face.faces())
        return frozenset(out)

    def faces(self) -> FrozenSet[Simplex]:
        missing = self.missing_faces()
        return frozenset(f for f in self.underlying.faces() if f not in missing)

    def euler_signature(self) -> int:
        """Alternating face count over non-empty faces."""
        return sum((-1) ** f.dim for f in self.faces() if not f.is_empty)

    def dotted(self) -> "MorseTile":
        """The same tile further deprived of its empty face."""
        if not self.is_closed:
            raise ValueError("only a closed simplex can be dotted")
        if self.dim == 0:
            return MorseTile(self.underlying, frozenset([EMPTY]), None, self.anchor)
        return MorseTile(self.underlying, frozenset(), EMPTY, self.anchor)

    def relabel(self, label_map: Callable[[Label], Label]) -> "MorseTile":
        """The same tile with every vertex label sent through ``label_map``.

        The simplex, the missing ridges, the Morse face and the anchor are
        mapped; the empty simplex and an absent anchor stay as they are.
        ``label_map`` is called once per vertex of the simplex and the
        anchor, and must be injective on them; a ridge or Morse face with a
        vertex off the simplex is a ``ValueError`` too.
        """
        image = {v: label_map(v) for v in self.underlying.vertices}
        if self.anchor is not None:
            image.update((v, label_map(v)) for v in self.anchor.vertices if v not in image)
        if len(set(image.values())) != len(image):
            raise ValueError(f"label map is not injective on the tile on {self.underlying!r}")
        # the vertices in the order of their images
        order = sorted(image, key=lambda v: image[v]._key)

        def on(s: Simplex) -> Simplex:
            vs = tuple(image[v] for v in order if v in s._vset)
            if len(vs) != len(s.vertices):
                raise ValueError(f"{s!r} is not a face of {self.underlying!r}")
            return _simplex(vs)

        return MorseTile(
            on(self.underlying),
            frozenset(on(r) for r in self.missing_ridges),
            None if self.morse_face is None else on(self.morse_face),
            None if self.anchor is None else on(self.anchor),
        )

    def __repr__(self) -> str:
        parts = [f"MorseTile({self.underlying!r}"]
        if self.missing_ridges:
            parts.append(f" minus {sorted(self.missing_ridges, key=lambda s: s.key)!r}")
        if self.morse_face is not None:
            parts.append(f" morse {self.morse_face!r}")
        parts.append(f" [{self.tile_class()!r}])")
        return "".join(parts)


def make_tile(
    underlying: Simplex,
    missing_ridges: Iterable[Simplex] = (),
    morse_face: Optional[Simplex] = None,
    anchor: Optional[Simplex] = None,
) -> MorseTile:
    """Validating constructor; raises NotAMorseTileError on a bad shape."""
    ridges = set(underlying.ridges())
    mr = set()
    for r in missing_ridges:
        r = r if isinstance(r, Simplex) else Simplex(r)
        if r not in ridges:
            raise NotAMorseTileError(f"{r!r} is not a ridge of {underlying!r}")
        mr.add(r)
    tile = MorseTile(underlying, frozenset(mr), morse_face, anchor)
    if morse_face is not None:
        if not morse_face <= underlying or morse_face == underlying:
            raise NotAMorseTileError("Morse face must be a proper face of the simplex")
        if underlying.dim - morse_face.dim < 2:
            raise NotAMorseTileError("Morse face must have codimension at least two")
        if any(morse_face <= r for r in mr):
            raise NotAMorseTileError("Morse face lies in a missing ridge")
        if not tile.restriction_set() <= morse_face:
            raise NotAMorseTileError("Morse face must contain the restriction set")
    return tile


def classify(underlying: Simplex, missing: Iterable[Simplex]) -> MorseTile:
    """Recover the (ridges, Morse face) shape of a missing set, or fail.

    Succeeds exactly when the downward closure of the missing set is the
    union of some ridges plus the closure of at most one further face
    containing the restriction set.
    """
    given = []
    for m in missing:
        m = m if isinstance(m, Simplex) else Simplex(m)
        if not m <= underlying or m == underlying:
            raise NotAMorseTileError(f"{m!r} is not a proper face of {underlying!r}")
        given.append(m)
    closure = set()
    # largest first, so a closed input expands only its maximal faces
    for m in sorted(given, key=len, reverse=True):
        if m not in closure:
            closure.update(m.faces())
    ridges = frozenset(r for r in underlying.ridges() if r in closure)
    residue = [f for f in closure if not any(f <= r for r in ridges)]
    if not residue:
        return make_tile(underlying, ridges)
    top = max(residue, key=lambda s: s.dim)
    if any(not (f <= top) for f in residue):
        raise NotAMorseTileError("missing set has two incomparable extra faces")
    return make_tile(underlying, ridges, top)


@dataclass(frozen=True)
class CanonicalTriple:
    """Unique splitting of a Morse tile as closed ∗ open ∗ dotted.

    ``theta`` is the restriction set, ``sigma`` the rest of the Morse face,
    ``tau`` the remaining vertices (present only with a Morse face, and of
    positive dimension so the splitting is unique).
    """

    sigma: Simplex
    theta: Simplex
    tau: Simplex


def canonical_triple(tile: MorseTile) -> CanonicalTriple:
    theta = tile.restriction_set()
    if tile.is_basic:
        return CanonicalTriple(tile.underlying.minus(theta), theta, EMPTY)
    sigma = tile.morse_face.minus(theta)
    tau = tile.underlying.minus(tile.morse_face)
    return CanonicalTriple(sigma, theta, tau)


def recompose(triple: CanonicalTriple, anchor: Optional[Simplex] = None) -> MorseTile:
    """Rebuild the tile σ ∗ θ° ∗ τ̇ from its canonical parts."""
    underlying = triple.sigma.union(triple.theta).union(triple.tau)
    ridges = [underlying.without(v) for v in triple.theta]
    if triple.tau.is_empty:
        morse: Optional[Simplex] = None
    else:
        morse = triple.sigma.union(triple.theta)
    tile = MorseTile(underlying, frozenset(ridges), morse, anchor)
    return _normalize(tile)


def _normalize(tile: MorseTile) -> MorseTile:
    """Move a codimension-one Morse face into the ridge set (dim-0 dotting)."""
    mf = tile.morse_face
    if mf is not None and tile.underlying.dim - mf.dim == 1:
        return MorseTile(
            tile.underlying,
            tile.missing_ridges | {mf},
            None,
            tile.anchor,
        )
    return tile


def tile_join(t: MorseTile, tp: MorseTile, anchor: Optional[Simplex] = None) -> MorseTile:
    """Join of a basic tile with a Morse tile; orders add.

    The missing set of the join is the union of each factor's missing ridges
    joined with the other factor's simplex, plus the first simplex joined
    with the second factor's Morse face.
    """
    if not t.is_basic:
        raise ValueError("first join factor must be a basic tile")
    if t.underlying.is_empty or tp.underlying.is_empty:
        raise ValueError("join factors must be non-empty tiles")
    if set(t.underlying) & set(tp.underlying):
        raise ValueError("join factors share vertex labels")
    underlying = t.underlying.union(tp.underlying)
    ridges = [r.union(tp.underlying) for r in t.missing_ridges]
    ridges += [t.underlying.union(r) for r in tp.missing_ridges]
    if tp.morse_face is None:
        morse: Optional[Simplex] = None
    else:
        morse = t.underlying.union(tp.morse_face)
    return _normalize(MorseTile(underlying, frozenset(ridges), morse, anchor))


def vertex_tile(v: Label, open_: bool = False) -> MorseTile:
    """A closed vertex, or the open (= dotted) vertex when open_ is set."""
    s = _simplex((v,))
    if open_:
        return MorseTile(s, frozenset([EMPTY]))
    return MorseTile(s, frozenset())


def cone(v: Label, t: MorseTile, dotted: bool = False) -> MorseTile:
    """Cone with apex v over a tile, optionally deprived of its base.

    A closed cone is a closed simplex iff the base is, and regular otherwise.
    The deprived cone v̇ ∗ T is critical iff T is critical and not a closed
    simplex, with index ind(T) + 1.
    """
    if v in t.underlying:
        raise ValueError(f"apex {v!r} already a vertex of the tile")
    apex = _simplex((v,))
    underlying = t.underlying.union(apex)
    ridges = {r.union(apex) for r in t.missing_ridges}
    morse = None if t.morse_face is None else t.morse_face.union(apex)
    if dotted:
        ridges.add(t.underlying)
    return _normalize(MorseTile(underlying, frozenset(ridges), morse, t.anchor))


def tile_to_relative(t: MorseTile) -> RelativeComplex:
    """The tile as a pair (closure of its simplex, missing subcomplex)."""
    ambient = closure_complex(t.underlying)
    gens = list(t.missing_ridges)
    if t.morse_face is not None:
        gens.append(t.morse_face)
    if not gens:
        missing = void_complex()
    else:
        missing = SimplicialComplex(gens)
    return RelativeComplex(ambient, missing)
