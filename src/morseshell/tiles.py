"""Morse tiles.

A basic tile of dimension n and order k is an n-simplex deprived of k of its
ridges; a Morse tile may further be deprived of one face of codimension at
least two (its Morse face), possibly the empty one.  Every face of a basic
tile of order k contains the restriction set: the (k-1)-face spanned by the
vertices opposite to the missing ridges.

The shape of a missing set has one rule, the verifier's (``verify._shape``
on the position masks of its generators, through ``verify._tile_shape``),
which reads the at most n + 1 generators of a tile on n vertices and never
its 2^n faces: ``classify`` recovers a tile from a missing set by it,
``tile_join`` builds through ``classify``, and ``MorseTile.tile_class``
reports its classification, which the tile lines, the census and the
certificates all use:

* a closed simplex (order 0, no Morse face) is critical of index 0;
* a simplex deprived only of its empty face ("dotted") is critical of index 0;
* an open simplex (all ridges missing) is critical of index dim;
* a tile whose Morse face equals the restriction set is critical of index =
  order; every other tile, a malformed one included, is regular.

For a vertex the empty simplex is its unique ridge, so the dotted vertex and
the open vertex are one and the same tile; the normal form, the one
``classify`` returns, stores it with ridge set {∅}.

A tiling holds its tiles as position-mask rows (``engine.Tiling.rows``);
``MorseTile`` is the form of a tile at the public API and in the tests:
``MorseTile._of_row`` builds the view ``Tiling.tiles`` and ``classify``'s
result, and ``Tiling(space, tiles)`` encodes into rows via the verifier.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from .complexes import (
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    _simplex,
    _sorted_by_key,
    closure_complex,
)
from .verify import Row, _tile_shape

__all__ = [
    "MorseTile",
    "TileClass",
    "NotAMorseTileError",
    "classify",
    "tile_join",
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

    The dataclass itself does not validate; ``classify`` does, and the
    verifier re-derives every tile it is handed.
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

    def tile_class(self) -> TileClass:
        """The verifier's classification of the tile."""
        index = _tile_shape(self).index
        return TileClass.regular() if index is None else TileClass.critical(index)

    @staticmethod
    def _of_row(row: Row) -> "MorseTile":
        """The tile of a row (``verify.Row``): the ridges omitting its
        omitted positions, the Morse face on its Morse positions."""
        vs, omitted, morse = row
        ridges = frozenset(_simplex(vs[:i] + vs[i + 1:]) for i in range(len(vs)) if omitted >> i & 1)
        face = None if morse < 0 else _simplex(tuple(v for i, v in enumerate(vs) if morse >> i & 1))
        return MorseTile(_simplex(vs), ridges, face)

    def _check_join(self, other: "MorseTile") -> None:
        """The one check of join factors, ``tile_join``'s and the engine's
        ``shell_sd_join``'s: this tile basic, both non-empty, sharing no
        vertex label; ValueError otherwise."""
        if not self.is_basic:
            raise ValueError("first join factor must be a basic tile")
        if self.underlying.is_empty or other.underlying.is_empty:
            raise ValueError("join factors must be non-empty tiles")
        if set(self.underlying) & set(other.underlying):
            raise ValueError("join factors share vertex labels")

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

    def __repr__(self) -> str:
        parts = [f"MorseTile({self.underlying!r}"]
        if self.missing_ridges:
            parts.append(f" minus {_sorted_by_key(self.missing_ridges)!r}")
        if self.morse_face is not None:
            parts.append(f" morse {self.morse_face!r}")
        parts.append(f" [{self.tile_class()!r}])")
        return "".join(parts)


def classify(underlying: Simplex, missing: Iterable[Simplex]) -> MorseTile:
    """The Morse tile on ``underlying`` whose missing set is the downward
    closure of ``missing``, or NotAMorseTileError.

    The shape is the verifier's (``verify._tile_shape``), read off the
    generators: the missing ridges are those opposite the restriction mask,
    the Morse face is the residue's top.  A missing face of codimension one
    is thus always a ridge, never a Morse face.  A generator that is not a
    proper face of ``underlying`` is named, the key-least one if several.
    """
    given = frozenset(m if isinstance(m, Simplex) else Simplex(m) for m in missing)
    shape = _tile_shape(MorseTile(underlying, given))
    if shape.reason is not None:
        raise NotAMorseTileError(shape.reason)
    return MorseTile._of_row((underlying.vertices, shape.restriction, shape.top))


def tile_join(t: MorseTile, tp: MorseTile) -> MorseTile:
    """Join of a basic tile with a Morse tile; orders add.

    The missing set of the join is the union of each factor's missing ridges
    joined with the other factor's simplex, plus the first simplex joined
    with the second factor's Morse face; ``classify`` reads its shape.
    """
    t._check_join(tp)
    missing = [r.union(tp.underlying) for r in t.missing_ridges]
    missing += [t.underlying.union(r) for r in tp.missing_ridges]
    if tp.morse_face is not None:
        missing.append(t.underlying.union(tp.morse_face))
    return classify(t.underlying.union(tp.underlying), missing)


def tile_to_relative(t: MorseTile) -> RelativeComplex:
    """The tile as a pair (closure of its simplex, missing subcomplex)."""
    gens = list(t.missing_ridges) + ([] if t.morse_face is None else [t.morse_face])
    return RelativeComplex(closure_complex(t.underlying), SimplicialComplex(gens))
