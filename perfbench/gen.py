"""Seeded input generator for the benchmark, in plain Python.

Everything here works on tuples of atom names and never imports
``morseshell``, so the cost of making inputs does not move when the
program changes.  The same seed always gives the same inputs: every
random choice is drawn from a ``random.Random`` seeded by a string, and
every set is sorted before a choice is made from it.

Random Morse functions follow Benedetti & Lutz, "Random discrete Morse
theory and a new library of triangulations" (2014): collapse a uniformly
random free face while one exists, otherwise remove a uniformly random
facet of top dimension as a critical face.  The collapse pairs form an
acyclic matching.
"""
from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Face = Tuple[str, ...]
Pair = Tuple[Face, Face]

# Base complexes on vertex indices, with their mod-2 Betti numbers.
TORUS = tuple(
    tri
    for i in range(7)
    for tri in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
)
RP2 = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)
BOUNDARY_4SIMPLEX = tuple(combinations(range(5), 4))

BASES = {
    "torus": (TORUS, (1, 2, 1)),
    "rp2": (RP2, (1, 1, 1)),
    "bd4": (BOUNDARY_4SIMPLEX, (1, 0, 0, 1)),
}


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, so adding one input does not
    shift the random choices made for another."""
    return random.Random(f"{seed}:{purpose}")


# -- complexes as facet tuples -------------------------------------------------


def faces_of(facets: Iterable[Face]) -> List[Face]:
    """All non-empty faces, sorted by size and then by names."""
    out = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(combinations(f, r))
    return sorted(out, key=lambda s: (len(s), s))


def f_vector(facets: Iterable[Face]) -> Tuple[int, ...]:
    counts: Dict[int, int] = {}
    for s in faces_of(facets):
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    return tuple(counts[d] for d in sorted(counts))


def euler(facets: Iterable[Face]) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector(facets)))


def named_complex(base: str, seed: int) -> List[Face]:
    """A base complex whose vertex names are permuted by the seed."""
    index_facets, _ = BASES[base]
    n = 1 + max(v for f in index_facets for v in f)
    perm = list(range(n))
    rng_for(seed, f"names:{base}").shuffle(perm)
    names = [f"v{perm[i]}" for i in range(n)]
    return sorted(tuple(sorted(names[v] for v in f)) for f in index_facets)


def subdivided_complex(facets: Sequence[Face], seed: int, tag: str) -> List[Face]:
    """sd(K) relabelled to atom names: one name per non-empty face of K,
    assigned by a seeded permutation; facets are the maximal flags."""
    faces = faces_of(facets)
    perm = list(range(len(faces)))
    rng_for(seed, f"sd-names:{tag}").shuffle(perm)
    width = len(str(len(faces) - 1))
    name = {s: f"u{perm[i]:0{width}d}" for i, s in enumerate(faces)}
    flags = set()
    for f in facets:
        for order in permutations(f):
            flags.add(tuple(sorted(name[tuple(sorted(order[: i + 1]))] for i in range(len(order)))))
    return sorted(flags)


def sd_face_count(facets: Sequence[Face], depth: int) -> int:
    """Number of non-empty faces of the depth-fold subdivision."""
    for d in range(depth):
        facets = subdivided_complex(facets, 0, f"count:{d}")
    return len(faces_of(facets))


# -- random acyclic matchings ----------------------------------------------------


def random_collapse_matching(facets: Sequence[Face], rng: random.Random) -> List[Pair]:
    """Benedetti–Lutz random discrete Morse matching on a complex."""
    faces = faces_of(facets)
    cofaces: Dict[Face, set] = {s: set() for s in faces}
    for s in faces:
        if len(s) > 1:
            for r in combinations(s, len(s) - 1):
                cofaces[r].add(s)
    remaining = set(faces)
    pairs: List[Pair] = []

    def remove(s: Face) -> None:
        remaining.discard(s)
        if len(s) > 1:
            for r in combinations(s, len(s) - 1):
                cofaces[r].discard(s)

    while remaining:
        # In a complex, a face with exactly one coface of the next
        # dimension lies in no other face: it is free.
        free = sorted(s for s in remaining if len(cofaces[s]) == 1)
        if free:
            sigma = rng.choice(free)
            (tau,) = cofaces[sigma]
            pairs.append((sigma, tau))
            remove(tau)
            remove(sigma)
        else:
            top = max(len(s) for s in remaining)
            crit = rng.choice(sorted(s for s in remaining if len(s) == top))
            remove(crit)
    return pairs


def seeded_matching(facets: Sequence[Face], seed: int, tag: str) -> List[Pair]:
    return random_collapse_matching(facets, rng_for(seed, f"matching:{tag}"))


def matching_census(facets: Sequence[Face], pairs: Sequence[Pair]) -> Dict[int, int]:
    """Unmatched faces by dimension: the critical census of the matching."""
    matched = {s for p in pairs for s in p}
    census: Dict[int, int] = {}
    for s in faces_of(facets):
        if s not in matched:
            census[len(s) - 1] = census.get(len(s) - 1, 0) + 1
    return census


def face_key(s: Face) -> str:
    return " ".join(s)


def matching_json(pairs: Sequence[Pair]) -> str:
    return json.dumps({"pairs": [[face_key(a), face_key(b)] for a, b in pairs]}) + "\n"


def complex_text(facets: Sequence[Face]) -> str:
    return "".join(" ".join(f) + "\n" for f in facets)


# -- join-sweep tile shapes ------------------------------------------------------

# A tile shape on a simplex of n vertices, in vertex indices: the vertices
# of the simplex, the removed ridges, and the Morse face (None for a basic
# tile; () is the empty face).
Shape = Tuple[Face, Tuple[Face, ...], Optional[Face]]


def tile_shapes(n: int, basic_only: bool) -> List[Shape]:
    """Every Morse tile on an (n-1)-simplex: a set of removed ridges, plus
    optionally a Morse face of codimension at least two that contains the
    vertices opposite the removed ridges and lies in none of them."""
    simplex = tuple(range(n))
    ridges = [tuple(w for w in simplex if w != v) for v in simplex]
    shapes: List[Shape] = []
    for k in range(n + 1):
        for chosen in combinations(range(n), k):
            removed = tuple(ridges[v] for v in chosen)
            shapes.append((simplex, removed, None))
            if basic_only or n < 2:
                continue
            for r in range(n - 1):
                for mu in combinations(simplex, r):
                    if set(chosen) <= set(mu):
                        shapes.append((simplex, removed, mu))
    return shapes


JOIN_TOTAL_DIM = 3
VERTEX_POOL = 10


def join_strata() -> List[Tuple[int, int, List[Tuple[Shape, Shape]]]]:
    """All (basic T on Δᵃ, Morse T′ on Δᵇ) with a + b ≤ 3, by stratum."""
    out = []
    for a in range(JOIN_TOTAL_DIM + 1):
        for b in range(JOIN_TOTAL_DIM - a + 1):
            pairs = [
                (t, tp)
                for t in tile_shapes(a + 1, basic_only=True)
                for tp in tile_shapes(b + 1, basic_only=False)
            ]
            out.append((a, b, pairs))
    return out


def join_cases(seed: int, every: int) -> List[dict]:
    """A seeded subset of the join sweep: one pair in ``every`` (at least
    one) from each (a, b) stratum, evenly spaced along its enumeration from a
    seeded offset.  Evenly spaced pairs, rather than a random sample, keep
    the mix of tile shapes, and so the work, nearly the same for every
    seed.  Each pair gets seeded vertex names."""
    cases = []
    for a, b, pairs in join_strata():
        rng = rng_for(seed, f"join:{a}{b}")
        k = max(1, round(len(pairs) / every))
        step = len(pairs) / k
        start = rng.random() * step
        for i in (int(start + j * step) for j in range(k)):
            t, tp = pairs[i]
            names = [f"p{j}" for j in rng.sample(range(VERTEX_POOL), a + b + 2)]
            left, right = names[: a + 1], names[a + 1:]
            cases.append({
                "id": f"j{a}{b}-{i:03d}",
                "left": name_shape(t, left),
                "right": name_shape(tp, right),
            })
    return cases


def name_shape(shape: Shape, names: Sequence[str]) -> Shape:
    def nm(face: Face) -> Face:
        return tuple(sorted(names[v] for v in face))

    simplex, removed, mu = shape
    return nm(simplex), tuple(nm(r) for r in removed), None if mu is None else nm(mu)
