"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately dumb: direct enumeration of shapes, faces
and flags, never calling the code paths under test.  The link-isomorphism
layer at the end (derived neighborhoods, the vertex maps identifying links
in first and second subdivisions with joins of subdivided boundaries and
links, double-star intersections) spells out by brute force the
identifications the engine's label transports realize.  The Morse-layer
oracles are the all-pairs scans the face-incidence table in
``morseshell.morse`` replaced, and ``gf2_rank`` is textbook row reduction
of a dense 0/1 matrix.  The reference verifier at the end is the certifier
on ``Simplex`` face sets and the engine's tile calculus (``classify``,
``MorseTile.faces``, ``tile_class``) that ``morseshell.verify`` replaced.
The reference encoder last is the dict-building ``tile_to_json`` plus
``json.dumps`` that ``serial.tiling_to_lines`` replaced with per-label
texts.
"""
import heapq
import json
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from morseshell.complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    barycentric_complex,
    boundary_complex,
    join_complexes,
    link_complex,
    star_complex,
    void_complex,
)
from morseshell.engine import Tiling
from morseshell.labels import Label, bary
from morseshell.morse import DiscreteMorseFunction, ValidationReport
from morseshell.serial import simplex_to_json
from morseshell.tiles import MorseTile, NotAMorseTileError, classify
from morseshell.verify import Census, Certificate, mod2_betti


def faces_of(simplex):
    """Every face of a simplex, the empty one included, by size: combinations
    of its vertex tuple through the validating constructor."""
    vs = simplex.vertices
    return [Simplex(list(c)) for r in range(len(vs) + 1) for c in combinations(vs, r)]


def all_tiles_on(underlying):
    """Every Morse tile on a simplex, by direct enumeration of the shape."""
    tiles = []
    vs = underlying.vertices
    # (ridge, the vertex it omits), in vertex order
    ridges = [(Simplex([w for w in vs if w != v]), v) for v in vs]
    for k in range(len(ridges) + 1):
        for picked in combinations(ridges, k):
            r = {v for _, v in picked}
            chosen = frozenset(rho for rho, _ in picked)
            tiles.append(MorseTile(underlying, chosen))
            if underlying.dim >= 1:
                for mu in faces_of(underlying):
                    if len(vs) - len(mu.vertices) < 2:
                        continue
                    if not r <= set(mu.vertices):
                        continue
                    if any(set(mu.vertices) <= set(rho.vertices) for rho in chosen):
                        continue
                    tiles.append(MorseTile(underlying, chosen, mu))
    return tiles


def basic_tiles_on(underlying):
    return [t for t in all_tiles_on(underlying) if t.is_basic]


def missing_closure(tile):
    out = set()
    for rho in tile.missing_ridges:
        out |= set(faces_of(rho))
    if tile.morse_face is not None:
        out |= set(faces_of(tile.morse_face))
    return frozenset(out)


def all_subcomplex_missing_sets(underlying):
    """All downward-closed sets of proper faces of the simplex."""
    proper = [f for f in faces_of(underlying) if f != underlying and not f.is_empty]
    sets = {frozenset(), frozenset({EMPTY})}
    for mask in range(1 << len(proper)):
        chosen = {proper[i] for i in range(len(proper)) if mask >> i & 1}
        if not chosen:
            continue
        closed = all(
            g in chosen for f in chosen for g in faces_of(f) if not g.is_empty
        )
        if closed:
            sets.add(frozenset(chosen) | {EMPTY})
    return sets


def star_union_faces(space, vert_labels):
    """Faces of the union of closed stars of the given barycenter labels in
    a subdivided relative complex: flags whose bottom face meets the set,
    plus the empty face when the space has one."""
    vert_labels = set(vert_labels)
    out = set()
    for f in space.faces():
        if f.is_empty:
            out.add(f)
            continue
        bottom = min(f.vertices, key=lambda lab: len(lab.members))
        if set(bottom.members) & vert_labels:
            out.add(f)
    return out


def covered_faces(tiles):
    out = set()
    for t in tiles:
        missing = missing_closure(t)
        out.update(f for f in faces_of(t.underlying) if f not in missing)
    return out


# -- link isomorphisms ------------------------------------------------------


def derived_neighborhood(l: SimplicialComplex, k: SimplicialComplex) -> SimplicialComplex:
    """First derived neighborhood N(L, K) ⊆ sd(K).

    The union of the closed stars, in sd(K), of the barycenters of the
    vertices of L.  Its facets are the maximal flags of K whose minimal
    face is a vertex of L.
    """
    if not l.is_void and not l.is_subcomplex_of(k):
        raise ValueError("first argument must be a subcomplex of the second")
    sd_k = barycentric_complex(k)
    l_vertices = set(l.vertices())
    if not l_vertices:
        return void_complex()
    chosen = []
    for flag in sd_k.facets:
        bottom = min(flag.vertices, key=lambda lab: len(lab.members))
        if len(bottom.members) == 1 and bottom.members[0] in l_vertices:
            chosen.append(flag)
    return SimplicialComplex(chosen, _absorb=False)


class VertexMap:
    """A total injective label map, acting on simplices, complexes and more."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[Label, Label]):
        self.mapping = dict(mapping)
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValueError("vertex map must be injective")

    def __getitem__(self, v: Label) -> Label:
        try:
            return self.mapping[v]
        except KeyError:
            raise KeyError(f"label outside the domain of the map: {v!r}") from None

    def __call__(self, v: Label) -> Label:
        """A vertex map is a label function, as ``MorseTile.relabel`` takes."""
        return self[v]

    def on_simplex(self, s: Simplex) -> Simplex:
        return Simplex(self[v] for v in s)

    def on_complex(self, k: SimplicialComplex) -> SimplicialComplex:
        if k.is_void:
            return k
        return SimplicialComplex(
            tuple(self.on_simplex(f) for f in k.facets), _absorb=False
        )

    def on_relative(self, s: RelativeComplex) -> RelativeComplex:
        return RelativeComplex(self.on_complex(s.ambient), self.on_complex(s.missing))


def link_iso_sd(k: SimplicialComplex, sigma: Simplex) -> VertexMap:
    """Vertex map realizing sd(∂σ) ∗ sd(lk_K(σ)) ≅ lk_{sd K}(σ̂).

    Barycenters of proper faces of σ map to themselves; the barycenter of a
    link face λ maps to the barycenter of σ ∪ λ.
    """
    if sigma not in k or sigma.is_empty:
        raise ValueError(f"{sigma!r} is not a non-empty face of the complex")
    mapping: Dict[Label, Label] = {}
    for face in sigma.faces():
        if not face.is_empty and face != sigma:
            lab = bary(face.vertices)
            mapping[lab] = lab
    for lam in link_complex(k, sigma).faces():
        if not lam.is_empty:
            mapping[bary(lam.vertices)] = bary(sigma.union(lam).vertices)
    return VertexMap(mapping)


def link_model_sd(k: SimplicialComplex, sigma: Simplex) -> SimplicialComplex:
    """The model complex sd(∂σ) ∗ sd(lk_K(σ)), domain of link_iso_sd."""
    bd = barycentric_complex(boundary_complex(sigma))
    lk = barycentric_complex(link_complex(k, sigma))
    return join_complexes(bd, lk)


def link_iso_sd2(k: SimplicialComplex, sigma: Simplex) -> VertexMap:
    """Vertex map realizing sd(sd(∂σ) ∗ sd(lk_K σ)) ≅ lk_{sd²K}(σ̂̂).

    A vertex of the domain is the barycenter of a face Y of the model join;
    it maps to the barycenter of the sd(K)-simplex obtained by pushing Y
    through link_iso_sd and adjoining the barycenter of σ itself.
    """
    inner = link_iso_sd(k, sigma)
    sigma_hat = bary(sigma.vertices)
    model = link_model_sd(k, sigma)
    mapping: Dict[Label, Label] = {}
    for face in model.faces():
        if face.is_empty:
            continue
        pushed = [inner[v] for v in face]
        mapping[bary(face.vertices)] = bary(pushed + [sigma_hat])
    return VertexMap(mapping)


def star_intersection_sd2(
    k: SimplicialComplex, sigma: Simplex, tau: Simplex
) -> Tuple[SimplicialComplex, Optional[SimplicialComplex]]:
    """Intersection of the closed stars of σ̂̂ and τ̂̂ in sd²(K), with model.

    Returns the intersection subcomplex of sd²(K) and, when σ is a proper
    face of τ, its model N(τ̂, sd(∂σ) ∗ sd(lk_K σ)) inside the domain of
    link_iso_sd2(K, σ): the image of the model under that map is the
    intersection.  The intersection is void unless one face contains the
    other.
    """
    if sigma not in k or tau not in k or sigma.is_empty or tau.is_empty:
        raise ValueError("both arguments must be non-empty faces of the complex")
    sd2 = barycentric_complex(barycentric_complex(k))
    s_hat = bary([bary(sigma.vertices)])
    t_hat = bary([bary(tau.vertices)])
    st_s = star_complex(sd2, Simplex([s_hat]))
    st_t = star_complex(sd2, Simplex([t_hat]))
    inter_faces = (st_s.faces() & st_t.faces()) - {EMPTY}
    inter = sd2.restrict(inter_faces) if inter_faces else void_complex()
    model: Optional[SimplicialComplex] = None
    if sigma < tau:
        # the vertex of sd(lk_K(σ)) identified with τ̂ is the barycenter of
        # the opposite face of σ in τ
        w = bary(tau.minus(sigma).vertices)
        model = derived_neighborhood(
            SimplicialComplex((Simplex([w]),)), link_model_sd(k, sigma)
        )
    return inter, model


def apply_map(x, m: VertexMap):
    """Structure-preserving relabeling of simplices, complexes and tilings."""
    if isinstance(x, Simplex):
        return m.on_simplex(x)
    if isinstance(x, SimplicialComplex):
        return m.on_complex(x)
    if isinstance(x, RelativeComplex):
        return m.on_relative(x)
    if isinstance(x, MorseTile):
        return x.relabel(m)
    if isinstance(x, Tiling):
        return Tiling(m.on_relative(x.space), tuple(t.relabel(m) for t in x.tiles))
    raise TypeError(f"cannot apply a vertex map to {type(x).__name__}")


# -- Morse layer ------------------------------------------------------------


def _nonempty_by_key(k: SimplicialComplex) -> List[Simplex]:
    return sorted((s for s in k.faces() if not s.is_empty), key=lambda s: s.key)


def validate_oracle(k: SimplicialComplex, f: DiscreteMorseFunction) -> ValidationReport:
    """``morse.validate`` by comparing every pair of faces."""
    report = ValidationReport()
    faces = _nonempty_by_key(k)
    for s in faces:
        up = [t for t in faces if s < t and f[s] >= f[t]]
        down = [t for t in faces if t < s and f[s] <= f[t]]
        if len(up) > 1:
            report.is_dmf = False
            report.witnesses.setdefault("dmf_up", (s, *up))
        if len(down) > 1:
            report.is_dmf = False
            report.witnesses.setdefault("dmf_down", (s, *down))
        for t in faces:
            if s < t and f[s] > f[t] and not report.witnesses.get("monotone"):
                report.is_monotone = False
                report.witnesses["monotone"] = (s, t)
    by_value: Dict[Fraction, List[Simplex]] = {}
    for s in faces:
        by_value.setdefault(f[s], []).append(s)
    for val, group in sorted(by_value.items()):
        if len(group) > 2 and not report.witnesses.get("semi_injective"):
            report.is_semi_injective = False
            report.witnesses["semi_injective"] = tuple(group)
        for a in group:
            for b in group:
                if a.key < b.key and not (a < b or b < a):
                    report.is_generic = False
                    report.witnesses.setdefault("generic", (a, b))
    return report


def matching_oracle(k: SimplicialComplex, f: DiscreteMorseFunction) -> Dict[Simplex, Simplex]:
    """The pairing of f, re-sorting all faces for every face."""
    pairs: Dict[Simplex, Simplex] = {}
    used = set()
    for s in _nonempty_by_key(k):
        for t in sorted(k.faces(), key=lambda x: x.key):
            if t.dim == s.dim + 1 and s < t and f[t] <= f[s]:
                if s in used or t in used:
                    raise ValueError("function does not induce a matching; not a dmf")
                pairs[s] = t
                used.add(s)
                used.add(t)
    return pairs


def assign_values_oracle(
    k: SimplicialComplex, pairs: Mapping[Simplex, Simplex]
) -> DiscreteMorseFunction:
    """Canonical values of a matching: cover relations found by comparing
    every pair of faces, then a min-key topological sort."""
    partner: Dict[Simplex, Simplex] = {}
    for s, t in pairs.items():
        partner[s] = t
        partner[t] = s
    faces = [s for s in k.faces() if not s.is_empty]
    node_of: Dict[Simplex, Simplex] = {}
    for s in faces:
        mate = partner.get(s)
        node_of[s] = s if mate is None or s.key < mate.key else mate
    members: Dict[Simplex, List[Simplex]] = {}
    for s in faces:
        members.setdefault(node_of[s], []).append(s)
    succs: Dict[Simplex, set] = {n: set() for n in members}
    indeg: Dict[Simplex, int] = {n: 0 for n in members}
    for s in faces:
        for t in faces:
            if t.dim == s.dim + 1 and s < t and pairs.get(s) != t:
                a, b = node_of[s], node_of[t]
                if a != b and b not in succs[a]:
                    succs[a].add(b)
                    indeg[b] += 1
    heap = [n.key for n in members if indeg[n] == 0]
    key_to_node = {n.key: n for n in members}
    heapq.heapify(heap)
    values: Dict[Simplex, Fraction] = {}
    counter = 0
    while heap:
        n = key_to_node[heapq.heappop(heap)]
        for s in members[n]:
            values[s] = Fraction(counter)
        counter += 1
        for b in succs[n]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b.key)
    if len(values) != len(faces):
        raise ValueError("matched Hasse diagram has a cycle; not an acyclic matching")
    return DiscreteMorseFunction(values)


def canonicalize_oracle(k: SimplicialComplex, f: DiscreteMorseFunction) -> DiscreteMorseFunction:
    report = validate_oracle(k, f)
    if not report.is_dmf:
        raise ValueError(f"not a discrete Morse function: {report.witnesses}")
    return assign_values_oracle(k, matching_oracle(k, f))


def trivial_oracle(k: SimplicialComplex) -> DiscreteMorseFunction:
    raw = {s: Fraction(s.dim) for s in k.faces() if not s.is_empty}
    return canonicalize_oracle(k, DiscreteMorseFunction(raw))


def greedy_oracle(k: SimplicialComplex) -> DiscreteMorseFunction:
    """The greedy collapse rule, rescanning the remaining faces every step:
    collapse the key-smallest free (ridge, facet) pair, or else remove the
    key-smallest facet as critical."""
    remaining = {s for s in k.faces() if not s.is_empty}
    removal: List[Tuple[Simplex, ...]] = []
    while remaining:
        maximal = [s for s in remaining if not any(s < t for t in remaining)]
        best: Optional[Tuple[Simplex, Simplex]] = None
        for tau in maximal:
            for theta in tau.ridges():
                if theta.is_empty or theta not in remaining:
                    continue
                cofaces = [t for t in remaining if theta < t]
                if cofaces == [tau]:
                    cand = (theta, tau)
                    if best is None or (cand[0].key, cand[1].key) < (best[0].key, best[1].key):
                        best = cand
        if best is not None:
            removal.append(best)
            remaining.difference_update(best)
        else:
            crit = min(maximal, key=lambda s: s.key)
            removal.append((crit,))
            remaining.discard(crit)
    values: Dict[Simplex, Fraction] = {}
    total = len(removal)
    for step, faces in enumerate(removal):
        for s in faces:
            values[s] = Fraction(total - step)
    return canonicalize_oracle(k, DiscreteMorseFunction(values))


# -- homology ---------------------------------------------------------------


def gf2_rank(columns: Sequence[int]) -> int:
    """Rank over GF(2) of bit-vector columns, by Gauss–Jordan elimination of
    the dense 0/1 matrix whose rows are the columns."""
    width = max((c.bit_length() for c in columns), default=0)
    rows = [[(c >> b) & 1 for b in range(width)] for c in columns]
    rank = 0
    for b in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][b]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][b]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- reference verifier -------------------------------------------------------


def critical_census_oracle(t: Tiling) -> Census:
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


def check_tiles_oracle(cert: Certificate, s: RelativeComplex, t: Tiling) -> None:
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

    cert.census = critical_census_oracle(t)


def check_homology_oracle(cert: Certificate, s: RelativeComplex) -> None:
    """The census against the Euler characteristic of s and, for an
    absolute s, against its mod-2 Betti numbers."""
    signed = cert.census.signed_count()
    if signed != s.euler():
        cert._fail("euler_ok", None, f"signed census {signed} != Euler {s.euler()}", None)
    if s.is_absolute and not s.ambient.is_void:
        for k, b in enumerate(mod2_betti(s.ambient)):
            n = cert.census.critical.get(k, 0)
            if n < b:
                cert._fail("morse_inequalities_ok", None, f"census[{k}] = {n} < betti {b}", None)


def strong_condition_oracle(s: RelativeComplex, t: Tiling) -> bool:
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


def verify_tiling_oracle(s: RelativeComplex, t: Tiling, strong: bool = False) -> Certificate:
    """The reference certificate of t against s."""
    cert = Certificate()
    check_tiles_oracle(cert, s, t)
    check_homology_oracle(cert, s)
    if strong:
        cert.strong_ok = strong_condition_oracle(s, t)
    return cert


# -- reference encoder ----------------------------------------------------------


def tile_to_json(t: MorseTile) -> dict:
    """Wire record of a tile, as written to tiling files."""
    if t.morse_face is None:
        morse = None
    elif t.morse_face.is_empty:
        morse = "empty"
    else:
        morse = simplex_to_json(t.morse_face)
    cls = t.tile_class()
    return {
        "facet": simplex_to_json(t.underlying),
        "ridges": sorted(
            (simplex_to_json(r) for r in t.missing_ridges), key=json.dumps
        ),
        "morse_face": morse,
        "class": {"critical": cls.index} if cls.is_critical else "regular",
    }


def tile_lines_oracle(t: Tiling) -> List[str]:
    """The tile lines of ``serial.tiling_to_lines``, one ``json.dumps`` of
    each tile's record."""
    return [
        json.dumps(tile_to_json(tile), sort_keys=True, separators=(",", ":"))
        for tile in t.tiles
    ]
