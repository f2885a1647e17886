"""Structured vertex labels for iterated barycentric subdivisions.

A label is either an atom (an opaque token) or the barycenter of a set of
labels.  Barycenter labels nest: the vertices of sd^2(K) are barycenters of
sets of barycenters.  Labels are interned, totally ordered and hashable, so
simplices and complexes built from them have one canonical form.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Tuple, Union

__all__ = ["Label", "LabelRegistry", "atom", "bary", "as_label"]

# Sort key of labels: sorting with it compares the key tuples in C, in the
# order ``Label.__lt__`` gives.
label_key = attrgetter("_key")


class Label:
    """An interned vertex label: Atom(name) or Bary(member labels).

    Labels from the one registry compare and hash by identity (those of
    ``object``): interning makes equal structure the same object.
    """

    __slots__ = ("is_atom", "name", "members", "_key")

    def __init__(self, is_atom: bool, name: str, members: Tuple["Label", ...], key):
        self.is_atom = is_atom
        self.name = name          # atoms only
        self.members = members    # barycenters only, canonically sorted
        self._key = key

    @property
    def key(self):
        return self._key

    def __lt__(self, other: "Label") -> bool:
        return self._key < other._key

    def __le__(self, other: "Label") -> bool:
        return self._key <= other._key

    def __repr__(self) -> str:
        if self.is_atom:
            return self.name
        return "<" + " ".join(repr(m) for m in self.members) + ">"


class LabelRegistry:
    """Interning table so structurally equal labels are one object."""

    def __init__(self) -> None:
        self._atoms: dict[str, Label] = {}
        self._barys: dict[Tuple[Label, ...], Label] = {}

    def atom(self, name: str) -> Label:
        if not isinstance(name, str) or not name:
            raise ValueError(f"atom name must be a non-empty string, got {name!r}")
        lab = self._atoms.get(name)
        if lab is None:
            lab = Label(True, name, (), (0, name))
            self._atoms[name] = lab
        return lab

    def bary(self, members: Iterable[Label]) -> Label:
        ms = tuple(sorted(set(members), key=label_key))
        if not ms:
            raise ValueError("a barycenter label wraps a non-empty set of labels")
        lab = self._barys.get(ms)
        if lab is None:
            lab = Label(False, "", ms, (1, tuple(m.key for m in ms)))
            self._barys[ms] = lab
        return lab


_DEFAULT = LabelRegistry()


def atom(name: str) -> Label:
    """Intern an atom label in the default registry."""
    return _DEFAULT.atom(name)


def bary(members: Iterable[Label]) -> Label:
    """Intern the barycenter label of a set of labels."""
    return _DEFAULT.bary(members)


LabelLike = Union[str, Label]


def as_label(value: LabelLike) -> Label:
    """Coerce a string (atom name) or Label to a Label."""
    if isinstance(value, Label):
        return value
    if isinstance(value, str):
        return atom(value)
    raise TypeError(f"not a label: {value!r}")
