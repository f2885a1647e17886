"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately dumb: direct enumeration of shapes, faces
and flags, never calling the code paths under test.  The MorseTile calculus
first (``vertex_tile``, ``dotted``, ``relabel``, ``cone``, canonical
triples, ``euler_signature``) is the tile algebra the engine built with
before its kernel moved to compact triples; ``tile_class_oracle`` is the
restriction-set rule for criticality (on ``restriction_set``, which
``MorseTile`` no longer carries), held equal to the verifier's mask rule
(``verify._tile_shape``), the one rule the package classifies by.
``shape_oracle`` is that mask rule as it read the whole missing closure,
all 2^n masks of the simplex, before ``verify._shape`` read the generators
alone; the two are held equal field by field.  ``barycentric_oracle`` is
sd(K) with each flag sorted by label key, the rule
``complexes.barycentric_complex`` replaced with a flag template.  The
link-isomorphism layer (derived neighborhoods, the vertex maps identifying
links in first and second subdivisions with joins of subdivided boundaries
and links, double-star intersections) spells out by brute force the
identifications the engine's label transports realize.  The Morse-layer
oracles are the all-pairs scans the face-incidence table in
``morseshell.morse`` replaced, and ``gf2_rank`` is textbook row reduction
of a dense 0/1 matrix.  The reference verifier is the certifier on
``Simplex`` face sets (``classify_oracle``, ``MorseTile.faces``) that
``morseshell.verify`` replaced; it classifies by ``tile_class_oracle``.
``check_tiles_walk_oracle`` is the verifier's own walk as it listed every
tile's missing closure, before its shelling check read the generators
alone.
``classify_oracle`` is the shape recovery on ``Simplex`` sets that
``tiles.classify`` replaced with the verifier's mask rule
(``verify._shape``).  The reference encoder is the dict-building
``tile_to_json`` plus ``json.dumps`` that ``serial.tiling_to_lines``
replaced with per-label texts.  The reference shelling recursion last is
the engine's walk on ``MorseTile``s and labels (``cone``, ``relabel``)
that its kernel on compact (labels, omitted-mask, Morse-mask) triples and
position templates replaced.
"""
import heapq
import json
from fractions import Fraction
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from operator import or_
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from morseshell.complexes import (
    EMPTY,
    Key,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    _face_keys,
    _simplex,
    _sorted_by_key,
    _subsets,
    barycentric_complex,
    boundary_complex,
    join_complexes,
    link_complex,
    star_complex,
    void_complex,
)
from morseshell.engine import (
    CLOSED,
    DOTTED,
    OPEN,
    Tiling,
    _concat,
    _slice,
)
from morseshell.labels import Label, bary
from morseshell.morse import DiscreteMorseFunction, ValidationReport, filtration
from morseshell.serial import simplex_to_json
from morseshell.tiles import MorseTile, NotAMorseTileError, tile_join
from morseshell.verify import Census, Certificate, _closure, _count, _row_shape, mod2_betti


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


# -- MorseTile calculus -------------------------------------------------------


def vertex_tile(v: Label, open_: bool = False) -> MorseTile:
    """A closed vertex, or the open (= dotted) vertex when open_ is set."""
    return MorseTile(Simplex([v]), frozenset([EMPTY]) if open_ else frozenset())


def dotted(tile: MorseTile) -> MorseTile:
    """A closed simplex further deprived of its empty face."""
    if not tile.is_closed:
        raise ValueError("only a closed simplex can be dotted")
    if tile.dim == 0:
        return MorseTile(tile.underlying, frozenset([EMPTY]), None, tile.anchor)
    return MorseTile(tile.underlying, frozenset(), EMPTY, tile.anchor)


def relabel(tile: MorseTile, label_map: Callable[[Label], Label]) -> MorseTile:
    """The same tile with every vertex label sent through ``label_map``.

    The simplex, the missing ridges, the Morse face and the anchor are
    mapped; the empty simplex and an absent anchor stay as they are.
    ``label_map`` must be injective on the vertices of the simplex and the
    anchor; a ridge or Morse face with a vertex off the simplex is a
    ``ValueError`` too.
    """
    image = {v: label_map(v) for v in tile.underlying.vertices}
    if tile.anchor is not None:
        image.update((v, label_map(v)) for v in tile.anchor.vertices if v not in image)
    if len(set(image.values())) != len(image):
        raise ValueError(f"label map is not injective on the tile on {tile.underlying!r}")

    def on(s: Simplex) -> Simplex:
        if any(v not in image for v in s.vertices):
            raise ValueError(f"{s!r} is not a face of {tile.underlying!r}")
        return Simplex([image[v] for v in s.vertices])

    return MorseTile(
        on(tile.underlying),
        frozenset(on(r) for r in tile.missing_ridges),
        None if tile.morse_face is None else on(tile.morse_face),
        None if tile.anchor is None else on(tile.anchor),
    )


def _normalize(tile: MorseTile) -> MorseTile:
    """Move a codimension-one Morse face into the ridge set (dim-0 dotting)."""
    mf = tile.morse_face
    if mf is not None and tile.underlying.dim - mf.dim == 1:
        return MorseTile(tile.underlying, tile.missing_ridges | {mf}, None, tile.anchor)
    return tile


def cone(v: Label, t: MorseTile, dotted: bool = False) -> MorseTile:
    """Cone with apex v over a tile, optionally deprived of its base.

    A closed cone is a closed simplex iff the base is, and regular otherwise.
    The deprived cone v̇ ∗ T is critical iff T is critical and not a closed
    simplex, with index ind(T) + 1.
    """
    if v in t.underlying:
        raise ValueError(f"apex {v!r} already a vertex of the tile")
    apex = Simplex([v])
    ridges = {r.union(apex) for r in t.missing_ridges}
    morse = None if t.morse_face is None else t.morse_face.union(apex)
    if dotted:
        ridges.add(t.underlying)
    return _normalize(MorseTile(t.underlying.union(apex), frozenset(ridges), morse, t.anchor))


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


def restriction_set(tile: MorseTile) -> Simplex:
    """Face spanned by the vertices opposite to the missing ridges; a
    missing ridge that is not a ridge raises ``NotAMorseTileError``."""
    opposite = set()
    for r in tile.missing_ridges:
        rest = tile.underlying.minus(r)
        if len(rest) != 1:
            raise NotAMorseTileError(f"{r!r} is not a ridge of {tile.underlying!r}")
        opposite.add(rest.vertices[0])
    return Simplex([v for v in tile.underlying.vertices if v in opposite])


def canonical_triple(tile: MorseTile) -> CanonicalTriple:
    theta = restriction_set(tile)
    if tile.is_basic:
        return CanonicalTriple(tile.underlying.minus(theta), theta, EMPTY)
    return CanonicalTriple(
        tile.morse_face.minus(theta), theta, tile.underlying.minus(tile.morse_face)
    )


def recompose(triple: CanonicalTriple, anchor: Optional[Simplex] = None) -> MorseTile:
    """Rebuild the tile σ ∗ θ° ∗ τ̇ from its canonical parts."""
    underlying = triple.sigma.union(triple.theta).union(triple.tau)
    ridges = frozenset(underlying.without(v) for v in triple.theta)
    morse = None if triple.tau.is_empty else triple.sigma.union(triple.theta)
    return _normalize(MorseTile(underlying, ridges, morse, anchor))


def euler_signature(tile: MorseTile) -> int:
    """Alternating count of the tile's non-empty faces."""
    return sum((-1) ** f.dim for f in tile.faces() if not f.is_empty)


def tile_class_oracle(tile: MorseTile) -> Optional[int]:
    """The critical index of a tile, None when it is regular, by the
    restriction-set rule: a basic tile is critical when closed (index 0) or
    open (index dim); a tile with a Morse face is critical of index = order
    exactly when its Morse face is its restriction set.  A Morse face under
    a missing ridge removes no face, so such a tile is read as basic (the
    vertex c minus ridge ∅ and Morse face ∅ is the open vertex).  A missing
    ridge that is not a ridge raises ``NotAMorseTileError``."""
    morse = tile.morse_face
    if morse is None or any(morse <= r for r in tile.missing_ridges):
        return 0 if tile.order == 0 else tile.dim if tile.order == tile.dim + 1 else None
    return tile.order if morse == restriction_set(tile) else None


def classify_oracle(underlying: Simplex, missing) -> MorseTile:
    """Recover the (ridges, Morse face) shape of a missing set on ``Simplex``
    sets, or raise ``NotAMorseTileError``: the closure of the missing set,
    the missing ridges in it, and one top over the faces in no missing
    ridge, which has codimension at least two and contains the restriction
    set by construction."""
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
        return MorseTile(underlying, ridges)
    top = max(residue, key=lambda s: s.dim)
    if any(not (f <= top) for f in residue):
        raise NotAMorseTileError("missing set has two incomparable extra faces")
    return MorseTile(underlying, ridges, top)


class ReferenceShape(NamedTuple):
    """``shape_oracle``'s reading of a missing set: ``closure`` and
    ``owned`` select, in key order, the masks inside and outside the missing
    closure; the other fields are those of ``verify._Shape``."""

    closure: Tuple[bool, ...]
    owned: Tuple[bool, ...]
    index: Optional[int]
    reason: Optional[str]
    restriction: int
    top: int


@lru_cache(maxsize=None)
def key_order_masks(n: int) -> Tuple[int, ...]:
    """The masks of the faces of an (n-1)-simplex, by size, then
    lexicographically by position."""
    return tuple(
        sum(1 << i for i in c) for r in range(n + 1) for c in combinations(range(n), r)
    )


def shape_oracle(n: int, generators: frozenset) -> ReferenceShape:
    """The shape of an (n-1)-simplex whose missing set is generated by the
    given masks, read off the whole missing closure: the verifier's rule
    before it read the generators alone (``verify._shape``).

    The missing closure is the set of submasks of the generators.  Its
    codimension-one masks are the missing ridges, and the restriction mask
    is the set of vertices opposite them.  The residue is the closure masks
    that contain the restriction mask; it must have one top containing all
    of it, the Morse face.  With no residue the tile is basic: critical of
    index 0 when closed, of index n - 1 when open, and regular otherwise.
    With a top, the tile is critical of index = order when the top is the
    restriction mask, and regular otherwise.
    """
    masks = key_order_masks(n)
    closure = {m for g in generators for m in masks if m & g == m}
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
        index, top = (0 if order == 0 else n - 1 if order == n else None), -1
    elif top not in closure:
        index, reason = None, "missing set has two incomparable extra faces"
    else:
        index = order if top == restriction else None
    inside = tuple(m in closure for m in masks)
    return ReferenceShape(inside, tuple(not x for x in inside), index, reason, restriction, top)


# -- link isomorphisms ------------------------------------------------------


def barycentric_oracle(k: SimplicialComplex) -> SimplicialComplex:
    """sd(K) by the sort rule ``barycentric_complex`` used before its flag
    template: each ordering of a facet's vertices gives the chain of the
    barycenters of its prefixes, sorted by label key in ``Simplex``.  Nothing
    is kept on k."""
    flags = set()
    for f in k.facets:
        vs = f.vertices
        hat = {
            mask: bary([v for i, v in enumerate(vs) if mask >> i & 1])
            for mask in range(1, 1 << len(vs))
        }
        for perm in permutations([1 << i for i in range(len(vs))]):
            flags.add(Simplex([hat[mask] for mask in accumulate(perm, or_)]))
    return SimplicialComplex(flags)


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
    return SimplicialComplex(chosen)


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
        """A vertex map is a label function, as ``relabel`` takes."""
        return self[v]

    def on_simplex(self, s: Simplex) -> Simplex:
        return Simplex(self[v] for v in s)

    def on_complex(self, k: SimplicialComplex) -> SimplicialComplex:
        if k.is_void:
            return k
        return SimplicialComplex(tuple(self.on_simplex(f) for f in k.facets))

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
        return relabel(x, m)
    if isinstance(x, Tiling):
        return Tiling(m.on_relative(x.space), tuple(relabel(t, m) for t in x.tiles))
    raise TypeError(f"cannot apply a vertex map to {type(x).__name__}")


# -- Morse layer ------------------------------------------------------------


def _nonempty_by_key(k: SimplicialComplex) -> List[Simplex]:
    return sorted((s for s in k.faces() if not s.is_empty), key=lambda s: s.key)


def validate_oracle(k: SimplicialComplex, f: DiscreteMorseFunction) -> ValidationReport:
    """``morse.validate`` by comparing every pair of faces.

    Forman's counts run over the pairs of codimension one, and the
    ``monotone`` witness is the first such pair in key order that
    decreases; ``is_monotone`` is decided over every comparable pair, so
    agreement with ``validate`` checks that covers suffice.
    """
    report = ValidationReport()
    faces = _nonempty_by_key(k)
    for s in faces:
        cofaces = [t for t in faces if s < t and t.dim == s.dim + 1]
        up = [t for t in cofaces if f[s] >= f[t]]
        down = [t for t in faces if t < s and t.dim == s.dim - 1 and f[s] <= f[t]]
        if len(up) > 1:
            report.is_dmf = False
            report.witnesses.setdefault("dmf_up", (s, *up))
        if len(down) > 1:
            report.is_dmf = False
            report.witnesses.setdefault("dmf_down", (s, *down))
        for t in cofaces:
            if f[s] > f[t]:
                report.witnesses.setdefault("monotone", (s, t))
    report.is_monotone = not any(s < t and f[s] > f[t] for s in faces for t in faces)
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


def _index_oracle(tile: MorseTile) -> Optional[int]:
    """A tile's critical index by the restriction-set rule, None when it is
    regular or malformed."""
    try:
        return tile_class_oracle(tile)
    except NotAMorseTileError:
        return None


def _census_oracle(indices) -> Census:
    """The census of the given per-tile indices, None counting as regular."""
    census = Census()
    for index in indices:
        census.indices.append(index)
        if index is None:
            census.regular += 1
        else:
            census.critical[index] = census.critical.get(index, 0) + 1
    return census


def critical_census_oracle(t: Tiling) -> Census:
    """Counts of critical tiles by index, and the number of regular tiles,
    a malformed one included, and one anchored at no ambient facet of the
    tiled space, as ``check_tiles_oracle`` counts it."""
    anchors = set(t.space.ambient.facets)
    return _census_oracle(_index_oracle(tile) if tile.underlying in anchors else None for tile in t.tiles)


def check_tiles_oracle(cert: Certificate, s: RelativeComplex, t: Tiling) -> None:
    """Partition, shelling and tile-shape checks, plus the tile census, in
    which an unanchored tile counts as regular."""
    faces = s.faces()
    ambient_facets = set(s.ambient.facets)
    missing_faces = s.missing.faces()

    owner: Dict[Simplex, int] = {}
    for p, tile in enumerate(t.tiles):
        if tile.underlying not in ambient_facets:
            cert._fail("partition_ok", p, "tile not anchored at an ambient facet", tile.underlying)
            continue
        try:
            classify_oracle(tile.underlying, tile.missing_faces())
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

    cert.census = _census_oracle(
        _index_oracle(tile) if tile.underlying in ambient_facets else None for tile in t.tiles
    )


def check_tiles_walk_oracle(
    cert: Certificate, s: RelativeComplex, t: Tiling
) -> Tuple[Set[Key], Dict[Key, int], Set[Key]]:
    """``verify._check_tiles`` as it walked every anchored tile's whole
    missing closure in key order, before its shelling check read each
    tile's generators alone: the same rows, shapes, face keys and failure
    texts, the first face of each closure neither owned yet nor in L a
    gap.  Returns the space's face keys, the owner map and L's face keys."""
    missing = _face_keys(s.missing.facet_keys)
    facets = {f.vertices for f in s.ambient.facets}
    owner: Dict[Key, int] = {}
    gaps: List[Tuple[int, Key]] = []
    for p, (vs, omitted, morse) in enumerate(t.rows):
        if vs in facets:
            shape = t.kept_shapes.get(p) or _row_shape(len(vs), omitted, morse)
            _count(cert.census, shape.index)
            if shape.reason is not None:
                cert._fail("tiles_ok", p, f"not a Morse tile: {shape.reason}", _simplex(vs))
            closure, owned = _closure(len(vs), shape.generators)
            for key, mine in zip(_subsets(vs), owned):
                if not mine:
                    continue
                if key in missing:
                    cert._fail("partition_ok", p, "tile claims a face outside the complex", Simplex(key))
                    continue
                q = owner.setdefault(key, p)
                if q != p:
                    cert._fail("partition_ok", p, f"face also owned by tile {q}", Simplex(key))
            walk = [key for key, inside in zip(_subsets(vs), closure) if inside]
        else:
            cert._fail("partition_ok", p, "tile not anchored at an ambient facet", _simplex(vs))
            _count(cert.census, None)
            walk = list(_subsets(vs))
        for key in walk:
            if key not in owner and key not in missing:
                gaps.append((p, key))
                break
    space = set(owner)
    if gaps or not facets <= space:
        space = _face_keys(s.ambient.facet_keys) - missing
        for face in _sorted_by_key([Simplex(key) for key in space - set(owner)]):
            cert._fail("partition_ok", None, "face not covered by any tile", face)
    for p, key in gaps:
        cert._fail("shelling_ok", p, "closure face owned later or never", Simplex(key))
    return space, owner, missing


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


def strong_condition_oracle(s: RelativeComplex, t: Tiling) -> Optional[int]:
    """The smallest tile dimension d for which the faces owned by tiles of
    dimension > d do not form a relative subcomplex, or None.  As in
    ``check_tiles_oracle``, a face of the space belongs to the first
    anchored tile claiming it."""
    faces = s.faces()
    ambient_facets = set(s.ambient.facets)
    owner: Dict[Simplex, int] = {}
    for p, tile in enumerate(t.tiles):
        if tile.underlying in ambient_facets:
            for face in tile.faces():
                if face in faces:
                    owner.setdefault(face, p)
    for d in sorted({tile.dim for tile in t.tiles}):
        covered = {face for face, p in owner.items() if t.tiles[p].dim > d}
        for face in covered:
            for sub in face.faces():
                if sub not in covered and sub in faces:
                    return d
    return None


def verify_tiling_oracle(s: RelativeComplex, t: Tiling, strong: bool = False) -> Certificate:
    """The reference certificate of t against s."""
    cert = Certificate()
    check_tiles_oracle(cert, s, t)
    check_homology_oracle(cert, s)
    if strong:
        d = strong_condition_oracle(s, t)
        cert.strong_ok = d is None
        if d is not None:
            cert.failures.append((None, f"tiles of dimension above {d} do not form a subcomplex", None))
    return cert


# -- reference encoder ----------------------------------------------------------


def tile_to_json(t: MorseTile) -> dict:
    """Wire record of a tile, as written to tiling files; a malformed tile
    is regular, as the census counts it."""
    if t.morse_face is None:
        morse = None
    elif t.morse_face.is_empty:
        morse = "empty"
    else:
        morse = simplex_to_json(t.morse_face)
    index = _index_oracle(t)
    return {
        "facet": simplex_to_json(t.underlying),
        "ridges": sorted(
            (simplex_to_json(r) for r in t.missing_ridges), key=json.dumps
        ),
        "morse_face": morse,
        "class": "regular" if index is None else {"critical": index},
    }


def tile_lines_oracle(t: Tiling) -> List[str]:
    """The tile lines of ``serial.tiling_to_lines``, one ``json.dumps`` of
    each tile's record, with the class ``critical_census_oracle`` gives the
    tile (regular when it is anchored at no ambient facet)."""
    lines = []
    for tile, index in zip(t.tiles, critical_census_oracle(t).indices):
        record = tile_to_json(tile)
        record["class"] = "regular" if index is None else {"critical": index}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


# -- reference shelling recursion ------------------------------------------------
#
# The engine's walk on MorseTiles, before its kernel moved to compact
# (labels, omitted-mask, Morse-mask) triples and its joins to position
# templates: every cone is ``cone``, every transport ``relabel``, every
# barycenter a ``bary`` of the walked labels, every face a ``Simplex``, and
# entries are regrouped by label key (``_regroup``).  The link rule on
# (vertex, role) entries (``_slice``), the block chaining and the sd² label
# transport are the engine's own.


def _regroup(entries) -> Tuple[Tuple[Label, str], ...]:
    """(vertex, role) entries grouped closed, open, dotted, each group in
    label order; the engine regroups position ranks instead."""
    order = {CLOSED: 0, OPEN: 1, DOTTED: 2}
    return tuple(sorted(entries, key=lambda e: (order[e[1]], e[0].key)))


def entries_oracle(t: Optional[MorseTile]) -> Tuple[Tuple[Label, str], ...]:
    """The (vertex, role) pairs of a tile's canonical triple; none for None."""
    if t is None:
        return ()
    trip = canonical_triple(t)
    return (
        tuple((v, CLOSED) for v in trip.sigma)
        + tuple((v, OPEN) for v in trip.theta)
        + tuple((v, DOTTED) for v in trip.tau)
    )


def strip_empty_oracle(tiles: List[MorseTile]) -> List[MorseTile]:
    """Deprive the unique closed tile, if any, of its empty face."""
    closed = [i for i, t in enumerate(tiles) if t.is_closed]
    if not closed:
        return list(tiles)
    assert len(closed) == 1, "several tiles own the empty face"
    out = list(tiles)
    out[closed[0]] = dotted(out[closed[0]])
    return out


def _cone_block_oracle(apex: Label, tiles: Sequence[MorseTile], deprive: int) -> List[MorseTile]:
    return [cone(apex, t, dotted=i < deprive) for i, t in enumerate(tiles)]


def shell_entries_tile_oracle(entries, walked=()) -> List[MorseTile]:
    if not entries:
        return []
    if len(entries) == 1:
        v, role = entries[0]
        return [vertex_tile(bary((v,) + walked), open_=role != CLOSED)]
    heads = [e for e in entries if e[1] == CLOSED] or [e for e in entries if e[1] == OPEN]
    if heads:
        rest = tuple(e for e in entries if e != heads[0])
        return shell_entries_join_oracle(heads[:1], rest, walked)[0]
    closed = tuple((v, CLOSED) for v, _ in entries)
    return strip_empty_oracle(shell_entries_tile_oracle(closed, walked))


def shell_entries_join_oracle(left, right, walked=()) -> Tuple[List[MorseTile], int]:
    """Shell sd(T ∗ T′) walking T's vertices first; tiles and the length of
    the segment covering the stars of T's vertices."""
    if not right:
        tiles = shell_entries_tile_oracle(left, walked)
        return tiles, len(tiles)
    if not left:
        return shell_entries_tile_oracle(right, walked), 0
    left = _regroup(left)
    entries = left + _regroup(right)
    tiles: List[MorseTile] = []
    prefix = 0
    for j, (vj, _) in enumerate(entries):
        block, bpre = shell_entries_join_oracle(*_slice(entries, j), walked + (vj,))
        tiles.extend(_cone_block_oracle(bary((vj,) + walked), block, bpre))
        if j < len(left):
            prefix = len(tiles)
    if any(role != CLOSED for _, role in entries):
        tiles = strip_empty_oracle(tiles)
    return tiles, prefix


def shell_sd_join_oracle(t: MorseTile, tp: MorseTile) -> Tuple[List[MorseTile], int]:
    return shell_entries_join_oracle(entries_oracle(t), entries_oracle(tp))


def subtract_oracle(tile: MorseTile, m_faces: frozenset) -> MorseTile:
    """Remove the faces of a missing subcomplex from a flag tile: the
    longest bottom segment of the flag lying in it becomes the Morse face."""
    if not m_faces:
        return tile
    positions = sorted(tile.underlying.vertices, key=lambda lab: len(lab.members))
    i_m = -1
    for i, lab in enumerate(positions):
        if Simplex(lab.members) in m_faces:
            i_m = i
        else:
            break
    if i_m < 0:
        if tile.is_closed and EMPTY in m_faces:
            return dotted(tile)
        return tile
    seg = Simplex(positions[: i_m + 1])
    if any(seg <= r for r in tile.missing_ridges):
        return tile
    if tile.morse_face is not None and seg <= tile.morse_face:
        return tile
    assert tile.morse_face is None or tile.morse_face < seg
    return MorseTile(tile.underlying, tile.missing_ridges, seg, tile.anchor)


def shell_sd_relative_oracle(s: RelativeComplex, v: Label) -> Tuple[List[MorseTile], int]:
    """Tiles and star-segment length of a shelling of sd(S) from v̂."""
    k, l = s.ambient, s.missing
    star = sorted((f for f in k.facets if v in f), key=lambda f: f.key)
    rest = sorted((f for f in k.facets if v not in f), key=lambda f: f.key)
    seen = set(l.faces())
    blocks = []
    for facet in star + rest:
        m_faces = frozenset(f for f in facet.faces() if f in seen)
        missing_ridges = frozenset(r for r in facet.ridges() if r in m_faces)
        if v in facet:
            opp = facet.without(v)
            head = ((v, OPEN if opp in missing_ridges else CLOSED),)
            side = MorseTile(opp, frozenset(r.without(v) for r in missing_ridges if v in r))
        else:
            head, side = (), MorseTile(facet, missing_ridges)
        block, bpre = shell_entries_join_oracle(head, entries_oracle(side))
        blocks.append(([subtract_oracle(t, m_faces) for t in block], bpre))
        seen.update(facet.faces())
    return _concat(blocks)


def boundary_sd_oracle(sigma: Simplex, last: Optional[Simplex] = None):
    """Tiles, segment length, last apex and base tiles of a shelling of
    sd(∂σ) ending at the ridge ``last``."""
    ridges = sorted(sigma.ridges(), key=lambda s: s.key)
    if last is None:
        last = ridges[-1]
    ridges = [r for r in ridges if r != last] + [last]
    tiles: List[MorseTile] = []
    for j, rho in enumerate(ridges[:-1]):
        shared = [Simplex(set(rho.vertices) & set(ridges[i].vertices)) for i in range(j)]
        tiles.extend(shell_entries_tile_oracle(entries_oracle(MorseTile(rho, frozenset(shared)))))
    prefix = len(tiles)
    apex = bary(last.vertices)
    if last.dim == 0:
        base: List[MorseTile] = []
        tiles.append(vertex_tile(apex, open_=True))
    else:
        base = boundary_sd_oracle(last)[0]
        tiles.extend(_cone_block_oracle(apex, base, deprive=len(base)))
    return tiles, prefix, apex, base


def _link_shelling_oracle(k: SimplicialComplex, sigma: Simplex, start: Optional[Label] = None):
    lk = link_complex(k, sigma)
    if lk.dim < 0:
        return [None], 0
    if start is None:
        start = min(lk.vertices())
    return shell_sd_relative_oracle(RelativeComplex(lk), start)


def split_cone_tile_oracle(t: MorseTile, apex: Label) -> Optional[MorseTile]:
    """Write a tile as apex ∗ T and return T (None when T is empty)."""
    assert apex in t.underlying
    base = t.underlying.without(apex)
    ridges = set()
    for r in t.missing_ridges:
        assert apex in r, "tile is not a cone with the given apex"
        ridges.add(r.without(apex))
    morse: Optional[Simplex] = None
    if t.morse_face is not None:
        assert apex in t.morse_face, "Morse face does not contain the apex"
        morse = t.morse_face.without(apex)
        if morse.is_empty and base.dim == 0:
            return vertex_tile(base.vertices[0], open_=True)
        if morse.is_empty:
            return MorseTile(base, frozenset(ridges), EMPTY)
    if base.is_empty:
        return None
    return MorseTile(base, frozenset(ridges), morse)


def _sd2_transport(sigma: Simplex) -> Callable[[Label], Label]:
    """Label map carrying tiles of sd(sd(∂σ) ∗ sd(lk_K σ)) onto the link of
    the double barycenter of σ: boundary-side barycenters keep their face,
    link-side ones absorb σ, and every flag gains the barycenter of σ.  Each
    label's image is computed once per map.  The engine builds these labels
    straight from its join templates (``engine._step_image``); this map of
    the model's labels is the reference they are held to."""
    sigma_set = set(sigma.vertices)
    sigma_hat = bary(sigma.vertices)
    images: Dict[Label, Label] = {}

    def on_model_vertex(u: Label) -> Label:
        if sigma_set.issuperset(u.members):
            return u
        return bary(sigma_set.union(u.members))

    def on_label(lab: Label) -> Label:
        image = images.get(lab)
        if image is None:
            image = bary([on_model_vertex(u) for u in lab.members] + [sigma_hat])
            images[lab] = image
        return image

    return on_label


def double_star_oracle(sigma: Simplex, blocks) -> List[MorseTile]:
    """Chained blocks relabeled onto the link of σ's double barycenter and
    coned over it, their segment deprived of its base."""
    tiles, prefix = _concat(blocks)
    lift = _sd2_transport(sigma)
    apex = bary([bary(sigma.vertices)])
    return _cone_block_oracle(apex, [relabel(t, lift) for t in tiles], deprive=prefix)


def _critical_step_oracle(k: SimplicialComplex, sigma: Simplex, first: bool) -> List[MorseTile]:
    if sigma.dim == 0:
        lk = link_complex(k, sigma)
        if lk.dim < 0:
            tiles = [vertex_tile(bary([bary(sigma.vertices)]))]
        else:
            sd_lk = barycentric_complex(lk)
            model, _ = shell_sd_relative_oracle(RelativeComplex(sd_lk), min(sd_lk.vertices()))
            tiles = double_star_oracle(sigma, [(model, 0)])
        return tiles if first else strip_empty_oracle(tiles)
    link_tiles, _ = _link_shelling_oracle(k, sigma)
    return double_star_oracle(sigma, [
        shell_entries_join_oracle(entries_oracle(t_l), entries_oracle(t_m))
        for t_l in boundary_sd_oracle(sigma)[0]
        for t_m in link_tiles
    ])


def _collapse_step_oracle(k: SimplicialComplex, theta: Simplex, tau: Simplex) -> List[MorseTile]:
    b_tiles, b_prefix, b_apex, b_base = boundary_sd_oracle(tau, last=theta)
    base_tiles = b_base or [None]
    link_tiles, _ = _link_shelling_oracle(k, tau)
    open_apex = vertex_tile(b_apex, open_=True)
    blocks = []
    for l, t_l in enumerate(b_tiles):
        for t_m in link_tiles:
            if l < b_prefix:
                blocks.append(shell_entries_join_oracle(entries_oracle(t_l), entries_oracle(t_m)))
            else:
                second = open_apex if t_m is None else tile_join(open_apex, t_m)
                base_tile = base_tiles[l - b_prefix]
                blocks.append(
                    shell_entries_join_oracle(entries_oracle(base_tile), entries_oracle(second))
                )
    tiles = double_star_oracle(tau, blocks)
    u = tau.minus(theta).vertices[0]
    link2, star_split = _link_shelling_oracle(k, theta, start=u)
    u_hat = bary([u])
    blocks_a, blocks_b = [], []
    for t_l in base_tiles:
        for m, t_m in enumerate(link2):
            if m < star_split:
                head = entries_oracle(t_l) + ((u_hat, CLOSED),)
                inner = split_cone_tile_oracle(t_m, u_hat)
                blocks_a.append(shell_entries_join_oracle(head, entries_oracle(inner)))
            else:
                blocks_b.append(shell_entries_join_oracle(entries_oracle(t_l), entries_oracle(t_m)))
    return tiles + double_star_oracle(theta, blocks_a + blocks_b)


def shell_sd2_oracle(k: SimplicialComplex, f: DiscreteMorseFunction) -> List[MorseTile]:
    """The tiles of the Morse shelling of sd²(K) along f's filtration."""
    tiles: List[MorseTile] = []
    for i, step in enumerate(filtration(k, f).steps):
        if step.is_critical:
            tiles.extend(_critical_step_oracle(k, step.critical, first=i == 0))
        else:
            tiles.extend(_collapse_step_oracle(k, *step.collapse))
    return tiles
