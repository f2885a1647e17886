"""Finite relative simplicial complexes.

Everything here is purely combinatorial: a simplex is a finite set of labels,
a complex is a downward closed family of simplices given by its facets, and a
relative complex is a pair K \\ L with L a subcomplex of K containing no facet
of K.  Both store facets only; face sets are derived on first use.  The
module provides joins, barycentric subdivision (the complex of flags of
non-empty faces), and stars and links (absolute and relative).

A complex keeps its facets as keys (sorted vertex tuples,
``SimplicialComplex.facet_keys``).  A subdivision is built on keys alone,
straight off a flag template, and builds its ``Simplex`` facets only on
first read; equality and hashing read the keys.  Subdivision and join
keep the relative invariant, so they build their pairs with the trusted
``_relative``, beside the validating ``RelativeComplex(...)``.

The package's face rules live here once: ``_subsets`` and ``_face_keys``
list face keys (sorted vertex tuples) in key order, ``_sorted_by_key``
orders simplices by ``Simplex.key`` and ``_euler`` counts the Euler
characteristic of simplices or keys.

Conventions for degenerate complexes matter throughout and are fixed here:

* the *void* complex has no faces at all;
* the *empty* complex ``{∅}`` has the empty simplex as its only face;
* every non-void complex contains the empty simplex.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, combinations, permutations, repeat
from operator import or_
from typing import Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Sized, Tuple

from .labels import Label, LabelLike, _bary, as_label, label_key

__all__ = [
    "Simplex",
    "EMPTY",
    "SimplicialComplex",
    "RelativeComplex",
    "make_complex",
    "closure_complex",
    "void_complex",
    "empty_complex",
    "boundary_complex",
    "join_complexes",
    "join",
    "barycentric",
    "barycentric_complex",
    "star_complex",
    "link_complex",
    "star_link",
]


class Simplex:
    """A finite set of labels in canonical order; the empty simplex is EMPTY.

    ``Simplex(...)`` validates: it coerces, deduplicates and sorts its input,
    and is the constructor for every outside input.  Faces derived from a
    canonical simplex (``faces``, ``without``, ``minus``, ``union``) are
    already sorted and distinct and go through the trusted ``_simplex``.
    """

    __slots__ = ("vertices", "_vset", "_hash")

    def __init__(self, vertices: Iterable[LabelLike] = ()):
        vs = tuple(sorted({as_label(v) for v in vertices}, key=label_key))
        self.vertices = vs
        self._vset = frozenset(vs)
        self._hash = hash(vs)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.vertices)

    def __contains__(self, v: Label) -> bool:
        return v in self._vset

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Simplex) and self.vertices == other.vertices

    def __le__(self, other: "Simplex") -> bool:
        """Face relation: self is a face of other."""
        return self._vset <= other._vset

    def __lt__(self, other: "Simplex") -> bool:
        return self._vset < other._vset

    @property
    def key(self):
        """Canonical sort key: by cardinality, then lexicographically."""
        return (len(self.vertices), tuple(v.key for v in self.vertices))

    def union(self, other: "Simplex") -> "Simplex":
        return _simplex(tuple(sorted(self._vset | other._vset, key=label_key)))

    def minus(self, other: "Simplex") -> "Simplex":
        return _simplex(tuple(v for v in self.vertices if v not in other._vset))

    def without(self, v: Label) -> "Simplex":
        return _simplex(tuple(w for w in self.vertices if w != v))

    def faces(self) -> Iterator["Simplex"]:
        """All faces, the empty simplex and self included, in key order."""
        return map(_simplex, _subsets(self.vertices))

    def ridges(self) -> Tuple["Simplex", ...]:
        """Codimension-one faces; the empty simplex for a vertex."""
        return tuple(self.without(v) for v in self.vertices)

    def __repr__(self) -> str:
        if self.is_empty:
            return "{}"
        return "{" + " ".join(repr(v) for v in self.vertices) + "}"


def _simplex(vertices: Tuple[Label, ...]) -> Simplex:
    """Trusted constructor: ``vertices`` must be labels, sorted and distinct.

    Sub-tuples of a canonical vertex tuple (and ``combinations`` of it) keep
    its order, so they qualify; anything from outside goes through
    ``Simplex(...)``.
    """
    s = object.__new__(Simplex)
    s.vertices = vertices
    s._vset = frozenset(vertices)
    s._hash = hash(vertices)
    return s


EMPTY = Simplex(())

Key = Tuple[Label, ...]  # a face as its sorted tuple of vertex labels


class SimplicialComplex:
    """A finite simplicial complex, stored as its facets.

    ``facet_keys`` holds each facet as its vertex tuple (its ``Key``);
    ``facets`` holds the same facets as ``Simplex``s in key order.
    ``SimplicialComplex(facets)`` validates: it deduplicates, absorbs
    redundant facets and sorts, and keeps both.  A subdivision
    (``barycentric_complex``) is made from keys alone by the trusted
    ``_of_keys``, in the order of its flag template, and builds ``facets``
    on first read.  Equality and hashing read the keys, as a set, so
    neither builds a ``Simplex``.  The face set (the empty face included)
    is derived from the keys on first use and kept, and so is the
    barycentric subdivision.  Instances are immutable by discipline.
    """

    __slots__ = ("facet_keys", "_facets", "_faces", "_sd", "_hash")

    def __init__(self, facets: Iterable[Simplex]):
        fs = _sorted_by_key(set(facets))
        if fs and len(fs[0]) < len(fs[-1]):
            # facets of one size absorb none; a redundant facet lies in a
            # larger facet through its first vertex, the empty facet in any
            by_vertex = _facets_by_vertex(fs)
            fs = [f for f in fs if f.vertices and not any(f < g for g in by_vertex[f.vertices[0]])]
        self._facets: Optional[Tuple[Simplex, ...]] = tuple(fs)
        self.facet_keys: Tuple[Key, ...] = tuple(f.vertices for f in fs)
        self._faces: Optional[FrozenSet[Simplex]] = None
        self._sd: Optional[SimplicialComplex] = None
        self._hash: Optional[int] = None

    @classmethod
    def _of_keys(cls, keys: Tuple[Key, ...]) -> "SimplicialComplex":
        """Trusted constructor: ``keys`` must be the distinct facets of a
        complex, none a face of another, each a tuple of labels in label-key
        order; their order is free."""
        k = cls.__new__(cls)
        k.facet_keys, k._facets, k._faces, k._sd, k._hash = keys, None, None, None, None
        return k

    @property
    def facets(self) -> Tuple[Simplex, ...]:
        if self._facets is None:
            self._facets = tuple(_sorted_by_key(list(map(_simplex, self.facet_keys))))
        return self._facets

    # -- basic queries ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facet_keys

    def faces(self) -> FrozenSet[Simplex]:
        if self._faces is None:
            # facets share faces: dedupe the keys, then build each face once
            self._faces = frozenset(map(_simplex, _face_keys(self.facet_keys)))
        return self._faces

    def __contains__(self, s: Simplex) -> bool:
        return s in self.faces()

    def __iter__(self) -> Iterator[Simplex]:
        return iter(_sorted_by_key(self.faces()))

    def facets_containing(self, s: Simplex) -> Tuple[Simplex, ...]:
        return tuple(f for f in self.facets if s <= f)

    @property
    def dim(self) -> int:
        return max(map(len, self.facet_keys), default=-1) - 1

    def vertices(self) -> Tuple[Label, ...]:
        return tuple(sorted({v for f in self.facet_keys for v in f}, key=label_key))

    def f_vector(self) -> Tuple[int, ...]:
        """Counts of faces by dimension, starting at dimension 0."""
        counts = Counter(map(len, self.faces()))
        return tuple(counts[r] for r in range(1, self.dim + 2))

    def euler(self) -> int:
        """Euler characteristic, summed over non-empty faces."""
        return _euler(self.faces())

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        """Every facet lies under a facet of other; no face set is derived."""
        under = _under_facets(other)
        return all(under(f) for f in self.facets)

    def restrict(self, keep: Iterable[Simplex]) -> "SimplicialComplex":
        """Subcomplex generated by the given faces of this complex."""
        return SimplicialComplex([s for s in keep if s in self])

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.facet_keys))
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Same facets: the keys in the same order, or the same set of them
        (the keys of a complex are distinct)."""
        if self is other:
            return True
        if not isinstance(other, SimplicialComplex):
            return False
        a, b = self.facet_keys, other.facet_keys
        return a == b or (len(a) == len(b) and set(a).issuperset(b))

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.facet_keys)} facets, dim {self.dim})"


def _subsets(vs: Key) -> Iterator[Key]:
    """The face keys of a simplex with sorted vertices vs, in key order."""
    return chain.from_iterable(map(combinations, repeat(vs), range(len(vs) + 1)))


def _face_keys(facets: Iterable[Key]) -> Set[Key]:
    """The keys of every face of the given facet keys, the empty face
    included."""
    return set(chain.from_iterable(map(_subsets, facets)))


def _euler(faces: Iterable[Sized]) -> int:
    """Alternating count of the non-empty faces, as simplices or keys."""
    return sum((-1) ** (r - 1) * n for r, n in Counter(map(len, faces)).items() if r)


def _sorted_by_key(simplices: Collection[Simplex]) -> List[Simplex]:
    """Simplices in ``Simplex.key`` order.  The distinct vertex labels are
    ranked by label key once, and the simplices sorted on (size, tuple of
    ranks): the same order, without comparing nested label keys per pair."""
    labels = sorted({v for s in simplices for v in s.vertices}, key=label_key)
    rank = {v: i for i, v in enumerate(labels)}.__getitem__
    return sorted(simplices, key=lambda s: (len(s.vertices), tuple(map(rank, s.vertices))))


def _facets_by_vertex(facets: Iterable[Simplex]) -> Dict[Label, List[Simplex]]:
    """The facets through each vertex."""
    by_vertex: Dict[Label, List[Simplex]] = {}
    for f in facets:
        for v in f.vertices:
            by_vertex.setdefault(v, []).append(f)
    return by_vertex


def _under_facets(k: SimplicialComplex) -> Callable[[Simplex], bool]:
    """Face membership in k from its facets alone: s is a face of k iff it
    lies under some facet, looked up among the facets through s's first
    vertex."""
    by_vertex = _facets_by_vertex(k.facets)

    def under(s: Simplex) -> bool:
        if s.is_empty:
            return not k.is_void
        return any(s <= f for f in by_vertex.get(s.vertices[0], ()))

    return under


def void_complex() -> SimplicialComplex:
    return SimplicialComplex(())


def empty_complex() -> SimplicialComplex:
    """The complex whose only face is the empty simplex."""
    return SimplicialComplex((EMPTY,))


def closure_complex(s: Simplex) -> SimplicialComplex:
    """The closed simplex s as a complex (the empty complex for s = ∅)."""
    return SimplicialComplex((s,))


def boundary_complex(s: Simplex) -> SimplicialComplex:
    """The boundary of a simplex: the empty complex when s is a vertex."""
    if s.is_empty:
        raise ValueError("the empty simplex has no boundary complex")
    if s.dim == 0:
        return empty_complex()
    return SimplicialComplex(s.ridges())


def make_complex(facet_list: Iterable[Iterable[LabelLike]]) -> SimplicialComplex:
    """Build a complex from vertex lists; redundant facets are absorbed."""
    facets = []
    for raw in facet_list:
        f = Simplex(raw)
        if f.is_empty:
            raise ValueError("facets must be non-empty")
        facets.append(f)
    return SimplicialComplex(facets)


def join_complexes(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Literal join {σ ∪ τ}; void if either factor is void."""
    if a.is_void or b.is_void:
        return void_complex()
    return SimplicialComplex(
        tuple(fa.union(fb) for fa in a.facets for fb in b.facets)
    )


class RelativeComplex:
    """A pair K \\ L with L ⊆ K a subcomplex containing no facet of K.

    Construction checks L ⊆ K first.  Then a facet of K lies in L exactly
    when it is a facet of L, and such shared facets are deleted from both
    sides, their ridges kept, until none is left, so the invariant holds
    for every instance.  Construction tests faces against facets only and
    derives no face set.  The faces of the relative complex are the faces
    of K not in L, derived on first use; the empty simplex is a face
    exactly when L is void.
    """

    __slots__ = ("ambient", "missing", "_faces")

    def __init__(self, ambient: SimplicialComplex, missing: SimplicialComplex = None):
        if missing is None:
            missing = void_complex()
        if not missing.is_void and not missing.is_subcomplex_of(ambient):
            raise ValueError("missing part must be a subcomplex of the ambient complex")
        while not missing.is_void:
            shared = set(missing.facets).intersection(ambient.facets)
            if not shared:
                break
            rim = [r for f in shared for r in f.ridges()]
            ambient = SimplicialComplex(
                [f for f in ambient.facets if f not in shared] + rim
            )
            missing = SimplicialComplex(
                [f for f in missing.facets if f not in shared] + rim
            )
        self.ambient = ambient
        self.missing = missing
        self._faces: Optional[FrozenSet[Simplex]] = None

    def faces(self) -> FrozenSet[Simplex]:
        if self._faces is None:
            if self.missing.is_void:
                self._faces = self.ambient.faces()
            else:
                self._faces = self.ambient.faces() - self.missing.faces()
        return self._faces

    @property
    def is_absolute(self) -> bool:
        return self.missing.is_void

    @property
    def has_empty_face(self) -> bool:
        return EMPTY in self.faces()

    def euler(self) -> int:
        return _euler(self.faces())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelativeComplex)
            and self.ambient == other.ambient
            and self.missing == other.missing
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.missing))

    def __repr__(self) -> str:
        return f"RelativeComplex({self.ambient!r} minus {self.missing!r})"


def _relative(ambient: SimplicialComplex, missing: SimplicialComplex) -> RelativeComplex:
    """Trusted constructor: ``missing`` must be a subcomplex of ``ambient``
    containing no facet of it, the invariant ``RelativeComplex(...)``
    establishes.  Subdivision and join preserve that invariant, so
    ``barycentric`` and ``join`` build their pairs here, with no subcomplex
    test and no pass over shared facets."""
    s = object.__new__(RelativeComplex)
    s.ambient, s.missing, s._faces = ambient, missing, None
    return s


def join(s1: RelativeComplex, s2: RelativeComplex) -> RelativeComplex:
    """Join of relative complexes.

    The ambient part is the join of the ambients and the missing part is
    (L1 ∗ K2) ∪ (K1 ∗ L2).  Joining with a void complex is the identity.
    The pair keeps the invariant of its factors: L1 ∗ K2 and K1 ∗ L2 lie
    in K1 ∗ K2, and a facet F1 ∪ F2 of K1 ∗ K2 lies in their union only if
    F1 ∈ L1 or F2 ∈ L2, which no facet of a factor does; so it goes
    through the trusted ``_relative``.
    """
    if s1.ambient.is_void:
        return s2
    if s2.ambient.is_void:
        return s1
    shared = set(s1.ambient.vertices()) & set(s2.ambient.vertices())
    if shared:
        raise ValueError(f"join factors share vertex labels: {sorted(shared)!r}")
    amb = join_complexes(s1.ambient, s2.ambient)
    m1 = join_complexes(s1.missing, s2.ambient)
    m2 = join_complexes(s1.ambient, s2.missing)
    return _relative(amb, SimplicialComplex(m1.facets + m2.facets))


# -- barycentric subdivision ----------------------------------------------


@lru_cache(maxsize=None)
def _flag_template(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The n! maximal flags of the non-empty faces of a simplex on n sorted
    vertices, each a tuple of face masks in the key order of the faces'
    barycenters.  A barycenter's key is the tuple of its members' keys, so
    over sorted vertices that order is lexicographic on the faces' sorted
    positions."""
    def positions(mask: int) -> Tuple[int, ...]:
        return tuple(i for i in range(n) if mask >> i & 1)

    return tuple(
        tuple(sorted(accumulate(perm, or_), key=positions))
        for perm in permutations([1 << i for i in range(n)])
    )


def barycentric_complex(k: SimplicialComplex) -> SimplicialComplex:
    """The complex of flags of non-empty faces of k.

    Vertices are barycenter labels of the non-empty faces; facets are the
    maximal flags, one per ordering of each facet's vertices, read off
    ``_flag_template`` as vertex tuples already in key order.  A maximal
    flag ends at its own facet of k, so the flags of distinct facets are
    distinct and none lies in another: the keys go to the trusted
    ``SimplicialComplex._of_keys`` with no set and no absorption, and the
    ``Simplex`` facets are built only if read.  The void complex and the
    empty complex {∅} are their own subdivisions.  The result is kept on k,
    so it is built once per complex object.
    """
    if k._sd is None:
        keys: List[Key] = []
        for vs in k.facet_keys:
            # the faces of the facet by vertex bitmask, each a sub-tuple of the
            # sorted key, so the trusted ``_bary`` interns its barycenter
            faces: List[Key] = [()]
            for v in vs:
                faces += [f + (v,) for f in faces]
            hat = [None] + list(map(_bary, faces[1:]))
            keys.extend(tuple(map(hat.__getitem__, flag)) for flag in _flag_template(len(vs)))
        k._sd = SimplicialComplex._of_keys(tuple(keys))
    return k._sd


def barycentric(s: RelativeComplex) -> RelativeComplex:
    """sd(K \\ L) = sd(K) \\ sd(L).

    The pair keeps the invariant of s, so it goes through the trusted
    ``_relative``: sd(L) ⊆ sd(K), and a maximal flag of K lies in sd(L)
    only if its top face, a facet of K, lies in L, which none does.
    """
    return _relative(barycentric_complex(s.ambient), barycentric_complex(s.missing))


# -- stars and links --------------------------------------------------------


def star_complex(k: SimplicialComplex, s: Simplex) -> SimplicialComplex:
    """st_K(s) = {τ | s ∪ τ ∈ K}, the subcomplex on facets containing s."""
    if s not in k:
        raise ValueError(f"{s!r} is not a face of the complex")
    return SimplicialComplex(k.facets_containing(s))


def link_complex(k: SimplicialComplex, s: Simplex) -> SimplicialComplex:
    """lk_K(s); the empty complex {∅} when s is a facet."""
    if s not in k:
        raise ValueError(f"{s!r} is not a face of the complex")
    opp = tuple(f.minus(s) for f in k.facets_containing(s))
    if all(o.is_empty for o in opp):
        return empty_complex()
    return SimplicialComplex(opp)


def star_link(s: RelativeComplex, sigma: Simplex) -> Tuple[RelativeComplex, RelativeComplex]:
    """Relative star and link of a face of the ambient complex.

    st_S(σ) = st_K(σ) \\ st_L(σ) and lk_S(σ) = lk_K(σ) \\ lk_L(σ), with the
    L-side void whenever σ is not a face of L.  Both depend on the pair
    (K, L), not just on the face set of S.
    """
    st_k = star_complex(s.ambient, sigma)
    lk_k = link_complex(s.ambient, sigma)
    if not s.missing.is_void and sigma in s.missing:
        st_l = star_complex(s.missing, sigma)
        lk_l = link_complex(s.missing, sigma)
    else:
        st_l = void_complex()
        lk_l = void_complex()
    return RelativeComplex(st_k, st_l), RelativeComplex(lk_k, lk_l)
