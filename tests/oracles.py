"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately dumb: direct enumeration of shapes, faces
and flags, never calling the code paths under test.  The link-isomorphism
layer at the end (derived neighborhoods, the vertex maps identifying links
in first and second subdivisions with joins of subdivided boundaries and
links, double-star intersections) spells out by brute force the
identifications the engine's label transports realize.
"""
from itertools import combinations
from typing import Dict, Mapping, Optional, Tuple

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
from morseshell.tiles import MorseTile


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
