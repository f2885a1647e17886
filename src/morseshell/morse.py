"""Discrete Morse functions: validation, canonical form, critical faces,
and the step filtration (single critical face or free-ridge collapse pair
per step) that drives the shelling constructions.

A discrete Morse function is Forman's (Adv. Math. 1998, Def. 2.1): no face
has two codimension-one cofaces valued not above it, nor two codimension-one
faces valued not below it.  The one incidence relation here is the cover
relation, in one table, ``_Hasse``.  Every function this module makes gets
its values from one rule, ``_assign_values``, applied to a gradient
matching over that table: the trivial function (no pairs), greedy collapse
(its collapse steps), a given matching, and ``canonicalize`` (the matching
f induces).  There is one step order, the canonical form's: ``filtration``
reads f's steps off ``canonicalize(k, f)``, one per value, and the critical
faces of f are the faces of its critical steps.  Values are exact rationals
throughout; all comparisons are exact.

``_assign_values`` lists the steps as it assigns the values, and a function
it made keeps them, with the complex they are on, in a private field that
equality ignores.  ``canonicalize`` returns such a function on its own
complex as it is, and ``filtration`` reads its steps, so one pipeline run
builds the ``_Hasse`` table once.  A function built by hand,
``DiscreteMorseFunction(values)``, has no steps and is validated first.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .complexes import Key, Simplex, SimplicialComplex, _sorted_by_key

__all__ = [
    "DiscreteMorseFunction",
    "ValidationReport",
    "FiltrationStep",
    "Filtration",
    "validate",
    "canonicalize",
    "critical_faces",
    "filtration",
    "trivial_dmf",
    "greedy_collapse_dmf",
    "dmf_from_matching",
]


@dataclass(frozen=True)
class DiscreteMorseFunction:
    """A total map from non-empty faces to rationals.

    ``_steps`` is set by ``_assign_values`` only: the complex the function
    was made on and its canonical steps, each the faces of one value."""

    values: Mapping[Simplex, Fraction]
    _steps: Optional[Tuple[SimplicialComplex, Tuple[Tuple[Simplex, ...], ...]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __getitem__(self, s: Simplex) -> Fraction:
        return self.values[s]

    def items(self):
        return self.values.items()


@dataclass
class ValidationReport:
    is_dmf: bool = True
    is_monotone: bool = True
    is_semi_injective: bool = True
    is_generic: bool = True
    witnesses: Dict[str, Tuple[Simplex, ...]] = field(default_factory=dict)

    @property
    def is_canonical(self) -> bool:
        return self.is_dmf and self.is_monotone and self.is_semi_injective and self.is_generic


class _Hasse(NamedTuple):
    """The cover relation of K's face poset, local to one call.

    Faces are the non-empty faces of K in ``key`` order and are referred to
    by position, so every list below is in ``key`` order too.
    """

    complex: SimplicialComplex
    faces: List[Simplex]
    pos: Dict[Key, int]      # position of each face by its vertex tuple; the empty face has none
    up: List[List[int]]      # codimension-one cofaces
    down: List[List[int]]    # codimension-one faces (ridges), the empty one aside


def _hasse(k: SimplicialComplex) -> _Hasse:
    """Fill the table from each face's ridges, |t| lookups per face, by
    vertex tuple."""
    faces = _sorted_by_key(k.faces())[1:]  # the empty face sorts first
    pos = {s.vertices: i for i, s in enumerate(faces)}
    up: List[List[int]] = [[] for _ in faces]
    down: List[List[int]] = []
    for i, t in enumerate(faces):
        n = len(t)
        # combinations of the sorted vertices run lexicographically: key order
        ridges = list(map(pos.__getitem__, combinations(t.vertices, n - 1))) if n > 1 else []
        for j in ridges:
            up[j].append(i)
        down.append(ridges)
    return _Hasse(k, faces, pos, up, down)


def _check_total(h: _Hasse, f: DiscreteMorseFunction) -> None:
    """f must take a value on every non-empty face of K and on nothing else."""
    for s in f.values:
        if s.is_empty:
            raise ValueError("function has a value on the empty face {}")
        if s.vertices not in h.pos:
            raise ValueError(f"function has a value on {s!r}, which is not a face of the complex")
    if len(f.values) != len(h.faces):
        missing = next(s for s in h.faces if s not in f.values)
        raise ValueError(f"function not defined on the face {missing!r}")


def validate(k: SimplicialComplex, f: DiscreteMorseFunction) -> ValidationReport:
    """Check Forman's two codimension-one counts plus the three
    canonical-form properties (monotone, semi-injective, generic), with
    witnesses."""
    h = _hasse(k)
    _check_total(h, f)
    return _validate(h, f)


def _validate(h: _Hasse, f: DiscreteMorseFunction) -> ValidationReport:
    """f is a dmf when no face has two cofaces in ``up`` valued not above
    it, nor two ridges in ``down`` valued not below it.  Monotonicity is
    read from the covers too: f(σ) ≤ f(τ) on every cover gives it on every
    comparable pair, by transitivity."""
    report = ValidationReport()
    witnesses = report.witnesses
    faces = h.faces
    val = [f[s] for s in faces]
    for i, s in enumerate(faces):
        v = val[i]
        up = [faces[j] for j in h.up[i] if v >= val[j]]
        down = [faces[j] for j in h.down[i] if v <= val[j]]
        if len(up) > 1:
            report.is_dmf = False
            witnesses.setdefault("dmf_up", (s, *up))
        if len(down) > 1:
            report.is_dmf = False
            witnesses.setdefault("dmf_down", (s, *down))
        if report.is_monotone:
            for j in h.up[i]:
                if v > val[j]:
                    report.is_monotone = False
                    witnesses["monotone"] = (s, faces[j])
                    break
    by_value: Dict[Fraction, List[Simplex]] = {}
    for s, v in zip(faces, val):
        by_value.setdefault(v, []).append(s)
    for _, group in sorted(by_value.items()):
        if len(group) > 2 and report.is_semi_injective:
            report.is_semi_injective = False
            witnesses["semi_injective"] = tuple(group)
        if report.is_generic:
            # the first incomparable pair in key order; the faces a passed
            # over are comparable with all later ones, so they form a chain
            # of at most dim K + 1 faces and the search stays linear
            for x, a in enumerate(group):
                b = next((b for b in group[x + 1:] if not (a < b or b < a)), None)
                if b is not None:
                    report.is_generic = False
                    witnesses["generic"] = (a, b)
                    break
    return report


def _matching(h: _Hasse, f: DiscreteMorseFunction) -> Dict[int, int]:
    """Positions of the codimension-one pairs (σ, τ) with f(τ) ≤ f(σ),
    ridge to coface.  f must be a dmf (``_validate``), so each face lies in
    at most one pair (Forman, Adv. Math. 1998, Lemma 2.5)."""
    val = [f[s] for s in h.faces]
    return {i: j for i, cofaces in enumerate(h.up) for j in cofaces if val[j] <= val[i]}


def _assign_values(h: _Hasse, pairs: Mapping[int, int]) -> DiscreteMorseFunction:
    """The one value rule: topologically sort the matched Hasse diagram
    (pairs contracted, all other cover relations pointing up), taking the
    smallest ready node first; matched pairs share one value.

    ``pairs`` maps ridge positions to coface positions in ``h``.  A node is
    the position of its smallest face, the ridge of a pair, so ties go in
    ``key`` order.  An edge met through both faces of a pair counts twice.
    The nodes in the order taken are the function's steps, which it keeps
    with ``h``'s complex (``DiscreteMorseFunction._steps``).
    """
    n = len(h.faces)
    node = list(range(n))
    for i, j in pairs.items():
        node[j] = i
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for j, ridges in enumerate(h.down):
        b = node[j]
        for i in ridges:
            a = node[i]
            if a != b:
                succs[a].append(b)
                indeg[b] += 1
    heap = [a for a in range(n) if node[a] == a and indeg[a] == 0]
    heapq.heapify(heap)
    rank: List[Optional[Fraction]] = [None] * n
    faces = h.faces
    steps = []
    counter = 0
    while heap:
        a = heapq.heappop(heap)
        rank[a] = Fraction(counter)
        steps.append((faces[a],) if a not in pairs else (faces[a], faces[pairs[a]]))
        counter += 1
        for b in succs[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)
    if counter != n - len(pairs):
        raise ValueError("matched Hasse diagram has a cycle; not an acyclic matching")
    f = DiscreteMorseFunction({s: rank[node[i]] for i, s in enumerate(faces)})
    object.__setattr__(f, "_steps", (h.complex, tuple(steps)))
    return f


def canonicalize(k: SimplicialComplex, f: DiscreteMorseFunction) -> DiscreteMorseFunction:
    """Reassign values so the function is monotone, semi-injective and
    generic, preserving the induced pairing and so the critical faces.  A
    function ``_assign_values`` made on k is canonical already and is
    returned as it is."""
    if f._steps is not None and f._steps[0] == k:
        return f
    h = _hasse(k)
    _check_total(h, f)
    report = _validate(h, f)
    if not report.is_dmf:
        raise ValueError(f"not a discrete Morse function: {report.witnesses}")
    return _assign_values(h, _matching(h, f))


def critical_faces(k: SimplicialComplex, f: DiscreteMorseFunction) -> Dict[Simplex, int]:
    """The critical faces of f, with index = dimension: the faces of the
    critical steps of its filtration, in step order."""
    return {st.critical: st.critical.dim for st in filtration(k, f).steps if st.is_critical}


def critical_census(k: SimplicialComplex, f: DiscreteMorseFunction) -> Dict[int, int]:
    return dict(Counter(critical_faces(k, f).values()))


@dataclass(frozen=True)
class FiltrationStep:
    """A single critical face, or a collapse pair (ridge, coface)."""

    critical: Optional[Simplex] = None
    collapse: Optional[Tuple[Simplex, Simplex]] = None

    @property
    def is_critical(self) -> bool:
        return self.critical is not None

    def faces(self) -> Tuple[Simplex, ...]:
        if self.critical is not None:
            return (self.critical,)
        return self.collapse


@dataclass(frozen=True)
class Filtration:
    steps: Tuple[FiltrationStep, ...]


def filtration(k: SimplicialComplex, f: DiscreteMorseFunction) -> Filtration:
    """f's steps in the order of its canonical form (``canonicalize``), one
    per value: a value held by one face is a critical step, a value held by
    two a collapse step (ridge, coface).  The canonical form's values are
    the ranks of a topological sort of f's matched Hasse diagram, so every
    prefix of steps is a subcomplex.  ``canonicalize`` raises ValueError
    when f is not a discrete Morse function on K.
    """
    _, groups = canonicalize(k, f)._steps
    return Filtration(tuple(
        FiltrationStep(critical=g[0]) if len(g) == 1 else FiltrationStep(collapse=g)
        for g in groups
    ))


def trivial_dmf(k: SimplicialComplex) -> DiscreteMorseFunction:
    """The canonical function of the empty matching; every face critical."""
    return _assign_values(_hasse(k), {})


def dmf_from_matching(
    k: SimplicialComplex, pairs: Sequence[Tuple[Simplex, Simplex]]
) -> DiscreteMorseFunction:
    """Synthesize a canonical function whose pairing is the given matching;
    fails when the matching is not acyclic."""
    h = _hasse(k)
    mapping: Dict[int, int] = {}
    seen = set()
    for s, t in pairs:
        i, j = h.pos.get(s.vertices), h.pos.get(t.vertices)
        if i is None or j is None:
            raise ValueError(f"({s!r}, {t!r}) is not a pair of non-empty faces of the complex")
        if i not in h.down[j]:
            raise ValueError(f"({s!r}, {t!r}) is not a ridge/coface pair")
        if i in seen or j in seen:
            raise ValueError("matching reuses a face")
        seen.update((i, j))
        mapping[i] = j
    return _assign_values(h, mapping)


def greedy_collapse_dmf(k: SimplicialComplex) -> DiscreteMorseFunction:
    """Repeated free-ridge collapses with deterministic tie-breaks.

    Whenever some facet has a free ridge, collapse the canonically smallest
    such pair; otherwise remove the canonically smallest facet as a critical
    face.  On complexes the greedy order fully collapses, the result has a
    single critical vertex.

    ``count`` holds each face's remaining cofaces of codimension one; two
    heaps on ``key`` hold the faces whose count fell to 1 (free-ridge
    candidates) and to 0 (maximal faces), and stale entries are dropped
    when popped.  The heaps are read only between steps, when the remaining
    faces form a subcomplex.  Then a count of 1 means the ridge is free: a
    coface of its one coface would contain a second coface of the ridge.  A
    ridge whose count falls to 1 in the middle of a step, while its coface
    still lies in the facet being collapsed, therefore stays queued and is
    free once the step is done.

    A face is removed only after all its cofaces, so the collapse steps are
    the gradient matching of the removal order, and they go to
    ``_assign_values`` as it.
    """
    h = _hasse(k)
    faces = h.faces
    count = [len(c) for c in h.up]
    alive = [True] * len(faces)
    free = [i for i, c in enumerate(count) if c == 1]
    maximal = [i for i, c in enumerate(count) if c == 0]
    heapq.heapify(free)
    heapq.heapify(maximal)

    def remove(i: int) -> None:
        alive[i] = False
        for j in h.down[i]:
            count[j] -= 1
            if count[j] == 1:
                heapq.heappush(free, j)
            elif count[j] == 0:
                heapq.heappush(maximal, j)

    def top(heap: List[int], wanted: int) -> Optional[int]:
        while heap and not (alive[heap[0]] and count[heap[0]] == wanted):
            heapq.heappop(heap)
        return heap[0] if heap else None

    pairs: Dict[int, int] = {}
    left = len(faces)
    while left:
        theta = top(free, 1)
        if theta is None:
            remove(top(maximal, 0))
            left -= 1
        else:
            tau = next(t for t in h.up[theta] if alive[t])
            pairs[theta] = tau
            remove(theta)
            remove(tau)
            left -= 2
    return _assign_values(h, pairs)
