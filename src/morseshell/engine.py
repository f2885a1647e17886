"""Constructive Morse shellings of barycentric subdivisions.

The constructions all follow one pattern.  To shell sd of a join of tiles,
number the vertices group by group (closed part first, then open part, with
any dotted part last), and walk that order: the star of each barycenter v̂ is
the cone with apex v̂ over a recursively shelled link, and the cones over the
part of the link already covered by earlier stars are deprived of their
bases.  Face bookkeeping rests on two facts about flags:

* a flag of faces belongs to the subdivided tile owning its top face, so a
  tiling of a complex induces a tiling of its subdivision block by block;
* a flag lies in the union of stars of the barycenters of a vertex set
  exactly when its bottom face meets that set, so those unions are covered
  by the leading tiles of each block.

The second-subdivision pipeline walks a discrete Morse function's step
filtration and extends the shelling one double star at a time; each critical
step contributes exactly one critical tile of the same index, each collapse
step none.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    barycentric,
    barycentric_complex,
    join,
    link_complex,
    void_complex,
)
from .labels import Label, bary
from .morse import DiscreteMorseFunction, canonicalize, critical_census, filtration, validate
from .tiles import (
    MorseTile,
    canonical_triple,
    cone as cone_tile,
    tile_join,
    tile_to_relative,
    vertex_tile,
)

__all__ = [
    "Tiling",
    "Census",
    "BoundaryShelling",
    "shell_sd_join",
    "shell_sd_tile",
    "shell_sd_relative",
    "shell_boundary_sd",
    "cone_shelling",
    "shell_sd2_from_dmf",
]

CLOSED, OPEN, DOTTED = "closed", "open", "dotted"
Entry = Tuple[Label, str]
Block = Tuple[Sequence[MorseTile], int]  # shelled tiles and their segment length


@dataclass(frozen=True)
class Tiling:
    """An ordered list of tiles anchored at facets of a relative complex."""

    space: RelativeComplex
    tiles: Tuple[MorseTile, ...]

    def __len__(self) -> int:
        return len(self.tiles)


@dataclass
class Census:
    critical: Dict[int, int] = field(default_factory=dict)
    regular: int = 0

    def signed_count(self) -> int:
        return sum((-1) ** k * n for k, n in self.critical.items())


# -- join forms --------------------------------------------------------------


def _entries(t: Optional[MorseTile]) -> Tuple[Entry, ...]:
    """The (vertex, role) pairs of a tile's canonical triple; none for None."""
    if t is None:
        return ()
    trip = canonical_triple(t)
    return (
        tuple((v, CLOSED) for v in trip.sigma)
        + tuple((v, OPEN) for v in trip.theta)
        + tuple((v, DOTTED) for v in trip.tau)
    )


def _regroup(entries: Sequence[Entry]) -> Tuple[Entry, ...]:
    order = {CLOSED: 0, OPEN: 1, DOTTED: 2}
    return tuple(sorted(entries, key=lambda e: (order[e[1]], e[0].key)))


def _slice(entries: Sequence[Entry], j: int) -> Tuple[Tuple[Entry, ...], Tuple[Entry, ...]]:
    """Entries before and after position j; linking a dotted vertex closes
    the rest of the dotted part."""
    _, role = entries[j]
    rest = tuple(entries[:j]) + tuple(entries[j + 1:])
    if role == DOTTED:
        rest = tuple((v, CLOSED if r == DOTTED else r) for v, r in rest)
    return rest[:j], rest[j:]


def _cone_block(apex: Label, tiles: Sequence[MorseTile], deprive: int) -> List[MorseTile]:
    return [cone_tile(apex, t, dotted=i < deprive) for i, t in enumerate(tiles)]


def _concat(blocks: Sequence[Block]) -> Tuple[List[MorseTile], int]:
    """Chain shelled blocks: the segments of all blocks first, then the
    rest; returns the tiles and the length of their segment."""
    head = [t for block, pre in blocks for t in block[:pre]]
    return head + [t for block, pre in blocks for t in block[pre:]], len(head)


def _strip_empty(tiles: List[MorseTile]) -> List[MorseTile]:
    """Deprive the unique closed tile, if any, of its empty face."""
    closed = [i for i, t in enumerate(tiles) if t.is_closed]
    if not closed:
        return list(tiles)
    assert len(closed) == 1, "several tiles own the empty face"
    out = list(tiles)
    out[closed[0]] = out[closed[0]].dotted()
    return out


def _shell_entries_tile(
    entries: Sequence[Entry], walked: Tuple[Label, ...] = ()
) -> List[MorseTile]:
    """Shell the subdivision of a single tile given as (vertex, role) pairs;
    every barycenter also absorbs the vertices already ``walked``."""
    if not entries:
        return []
    if len(entries) == 1:
        v, role = entries[0]
        return [vertex_tile(bary((v,) + walked), open_=role != CLOSED)]
    heads = [e for e in entries if e[1] == CLOSED] or [e for e in entries if e[1] == OPEN]
    if heads:
        rest = tuple(e for e in entries if e != heads[0])
        return _shell_entries_join(heads[:1], rest, walked)[0]
    # dotted simplex: shell the closed simplex, then remove the empty face
    return _strip_empty(_shell_entries_tile(tuple((v, CLOSED) for v, _ in entries), walked))


def _shell_entries_join(
    left: Sequence[Entry], right: Sequence[Entry], walked: Tuple[Label, ...] = ()
) -> Tuple[List[MorseTile], int]:
    """Shell sd(T ∗ T′) walking the vertices of T first.

    Returns the tiles and the number of leading tiles covering the union of
    stars of the barycenters of T's vertices.  Each vertex contributes the
    cone over a recursively shelled link, deprived of its base over the part
    of the link lying in earlier stars.  Either side may be empty: the other
    tile is then shelled alone, all of it in the segment when it is T.  The
    link is shelled with the vertex added to ``walked``, so its barycenters
    come out labeled as in the star.
    """
    if not right:
        tiles = _shell_entries_tile(left, walked)
        return tiles, len(tiles)
    if not left:
        return _shell_entries_tile(right, walked), 0
    left = _regroup(left)
    entries = left + _regroup(right)
    tiles: List[MorseTile] = []
    prefix = 0
    for j, (vj, _) in enumerate(entries):
        block, bpre = _shell_entries_join(*_slice(entries, j), walked + (vj,))
        tiles.extend(_cone_block(bary((vj,) + walked), block, bpre))
        if j < len(left):
            prefix = len(tiles)
    if any(role != CLOSED for _, role in entries):
        tiles = _strip_empty(tiles)
    return tiles, prefix


# -- public tile-level shellings ---------------------------------------------


def shell_sd_tile(t: MorseTile) -> Tiling:
    """A Morse shelling of sd(T).

    The census matches the tile: one critical tile of the same index when T
    is critical, none otherwise; for basic T all tiles are basic or critical.
    """
    if t.underlying.is_empty:
        raise ValueError("cannot shell the empty tile")
    tiles = _shell_entries_tile(_entries(t))
    return Tiling(barycentric(tile_to_relative(t)), tuple(tiles))


def shell_sd_join(t: MorseTile, tp: MorseTile) -> Tuple[Tiling, int]:
    """A Morse shelling of sd(T ∗ T′) beginning with the stars of the
    barycenters of T's vertices; T must be basic and both non-empty.

    Returns the tiling together with the length of that initial segment.
    Critical-tile contract: when T is open and T′ closed there are exactly
    two critical tiles, of index dim T inside the initial segment and
    dim T + 1 outside; otherwise there is exactly one critical tile iff
    T ∗ T′ is critical, inside the segment iff it is a closed simplex.
    """
    if not t.is_basic:
        raise ValueError("first factor must be a basic tile")
    if t.underlying.is_empty or tp.underlying.is_empty:
        raise ValueError("join factors must be non-empty")
    if set(t.underlying) & set(tp.underlying):
        raise ValueError("join factors share vertex labels")
    tiles, prefix = _shell_entries_join(_entries(t), _entries(tp))
    space = barycentric(join(tile_to_relative(t), tile_to_relative(tp)))
    return Tiling(space, tuple(tiles)), prefix


@dataclass(frozen=True)
class BoundaryShelling:
    """Shelled h-tiling of sd(∂σ) ending with the block over one ridge.

    The first ``prefix`` tiles cover sd(∂σ minus the last ridge); the rest
    tile sd of the open last ridge as a cone, deprived of its base, with
    apex the barycenter of that ridge over ``base_tiles`` (a shelling of
    sd(∂ last)).  The whole tiling has exactly one closed tile (the first)
    and one open tile (the last).
    """

    space: RelativeComplex
    tiles: Tuple[MorseTile, ...]
    prefix: int
    apex: Label
    base_tiles: Tuple[MorseTile, ...]


def shell_boundary_sd(sigma: Simplex, last: Optional[Simplex] = None) -> BoundaryShelling:
    """Shell sd(∂σ) from a facet order of ∂σ ending at ``last``."""
    if sigma.dim < 1:
        raise ValueError("the boundary of a vertex cannot be shelled")
    ridges = sorted(sigma.ridges(), key=lambda s: s.key)
    if last is None:
        last = ridges[-1]
    if last not in ridges:
        raise ValueError(f"{last!r} is not a ridge of {sigma!r}")
    ridges = [r for r in ridges if r != last] + [last]
    tiles: List[MorseTile] = []
    for j, rho in enumerate(ridges[:-1]):
        shared = [Simplex(set(rho.vertices) & set(ridges[i].vertices)) for i in range(j)]
        block_tile = MorseTile(rho, frozenset(shared))
        tiles.extend(_shell_entries_tile(_entries(block_tile)))
    prefix = len(tiles)
    apex = bary(last.vertices)
    if last.dim == 0:
        base: Tuple[MorseTile, ...] = ()
        tiles.append(vertex_tile(apex, open_=True))
    else:
        inner = shell_boundary_sd(last)
        base = inner.tiles
        tiles.extend(_cone_block(apex, list(base), deprive=len(base)))
    space = RelativeComplex(barycentric_complex(SimplicialComplex(sigma.ridges())))
    return BoundaryShelling(space, tuple(tiles), prefix, apex, base)


def cone_shelling(apex: Label, t: Tiling, deprive_prefix: int) -> Tiling:
    """Cone a shelled tiling, depriving the first tiles of their bases.

    Tile i becomes apex ∗ tile for i ≥ deprive_prefix and the base-deprived
    cone otherwise; criticality transforms accordingly (a deprived cone over
    a critical non-closed tile is critical one index higher, every other
    cone of a non-closed tile is regular).
    """
    if deprive_prefix < 0 or deprive_prefix > len(t.tiles):
        raise ValueError("deprive_prefix out of range")
    if any(apex in tile.underlying for tile in t.tiles):
        raise ValueError("apex label already occurs in the tiling")
    tiles = _cone_block(apex, list(t.tiles), deprive_prefix)
    k, l = t.space.ambient, t.space.missing
    apex_simplex = Simplex([apex])
    ambient = SimplicialComplex([f.union(apex_simplex) for f in k.facets], _absorb=False)
    gens = [f.union(apex_simplex) for f in l.facets]
    gens += [tile.underlying for tile in t.tiles[:deprive_prefix]]
    missing = SimplicialComplex(gens) if gens else void_complex()
    return Tiling(RelativeComplex(ambient, missing), tuple(tiles))


# -- vertex-star-first shellings of sd(S) ------------------------------------


def _subtract(tile: MorseTile, m_faces: frozenset) -> MorseTile:
    """Remove the faces of a missing subcomplex from a flag tile.

    The removable part of a tile is the closure of the longest bottom
    segment of its flag lying in the subcomplex; that segment becomes the
    Morse face (it always nests with an existing one).
    """
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
            return tile.dotted()
        return tile
    seg = Simplex(positions[: i_m + 1])
    if any(seg <= r for r in tile.missing_ridges):
        return tile
    if tile.morse_face is not None and seg <= tile.morse_face:
        return tile
    assert tile.morse_face is None or tile.morse_face < seg
    return MorseTile(tile.underlying, tile.missing_ridges, seg, tile.anchor)


def shell_sd_relative(s: RelativeComplex, v: Label) -> Tuple[Tiling, int]:
    """A Morse shelling of sd(S) beginning with the star of v̂.

    Facets through v are handled first.  Each facet contributes the relative
    facet it adds over the earlier ones and the missing part of S; its basic
    part is shelled through the join machinery (rooted at v for the star
    facets) and the leftover faces of codimension two and more are removed
    by ``_subtract``.  Returns the tiling and the size of the star segment.
    """
    k, l = s.ambient, s.missing
    if not any(v in f for f in k.facets):
        raise ValueError(f"{v!r} is not a vertex of the ambient complex")
    l_faces = l.faces()
    star = sorted((f for f in k.facets if v in f), key=lambda f: f.key)
    rest = sorted((f for f in k.facets if v not in f), key=lambda f: f.key)
    seen: set = set(l_faces)
    blocks: List[Block] = []
    for facet in star + rest:
        m_faces = frozenset(f for f in facet.faces() if f in seen)
        missing_ridges = frozenset(r for r in facet.ridges() if r in m_faces)
        if v in facet:
            opp = facet.without(v)
            head: Tuple[Entry, ...] = ((v, OPEN if opp in missing_ridges else CLOSED),)
            side = MorseTile(opp, frozenset(r.without(v) for r in missing_ridges if v in r))
        else:
            head, side = (), MorseTile(facet, missing_ridges)
        block, bpre = _shell_entries_join(head, _entries(side))
        blocks.append(([_subtract(t, m_faces) for t in block], bpre))
        seen.update(facet.faces())
    tiles, prefix = _concat(blocks)
    return Tiling(barycentric(s), tuple(tiles)), prefix


# -- the second-subdivision pipeline -----------------------------------------


def _sd2_transport(sigma: Simplex) -> Callable[[Label], Label]:
    """Label map carrying tiles of sd(sd(∂σ) ∗ sd(lk_K σ)) onto the link of
    the double barycenter of σ: boundary-side barycenters keep their face,
    link-side ones absorb σ, and every flag gains the barycenter of σ.  Each
    label's image is computed once per map."""
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


def _link_shelling(
    k: SimplicialComplex, sigma: Simplex, start: Optional[Label] = None
) -> Tuple[Tuple[Optional[MorseTile], ...], int]:
    """Tiles of a Morse shelling of sd(lk_K σ), its unique closed tile
    first, plus the star-segment length for the chosen start vertex; a
    single None stands for the tiles of an empty link."""
    lk = link_complex(k, sigma)
    if lk.dim < 0:
        return (None,), 0
    if start is None:
        start = min(lk.vertices())
    tiling, prefix = shell_sd_relative(RelativeComplex(lk), start)
    return tiling.tiles, prefix


def _split_cone_tile(t: MorseTile, apex: Label) -> Optional[MorseTile]:
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


def _double_star(sigma: Simplex, blocks: Sequence[Block]) -> List[MorseTile]:
    """Tiles of the star of the double barycenter of σ from shelled blocks
    of its link: the chained blocks are carried onto the link by
    ``_sd2_transport`` and coned, their segment deprived of its base."""
    tiles, prefix = _concat(blocks)
    lift = _sd2_transport(sigma)
    apex = bary([bary(sigma.vertices)])
    return _cone_block(apex, [t.relabel(lift) for t in tiles], deprive=prefix)


def _critical_step(k: SimplicialComplex, sigma: Simplex, first: bool) -> List[MorseTile]:
    """Tiles extending the shelling over the double star of a critical face;
    exactly one of them is critical, of index dim σ."""
    if sigma.dim == 0:
        lk = link_complex(k, sigma)
        if lk.dim < 0:
            tiles = [vertex_tile(bary([bary(sigma.vertices)]))]
        else:
            sd_lk = barycentric_complex(lk)
            model, _ = shell_sd_relative(RelativeComplex(sd_lk), min(sd_lk.vertices()))
            tiles = _double_star(sigma, [(model.tiles, 0)])
        return tiles if first else _strip_empty(tiles)
    link_tiles, _ = _link_shelling(k, sigma)
    return _double_star(sigma, [
        _shell_entries_join(_entries(t_l), _entries(t_m))
        for t_l in shell_boundary_sd(sigma).tiles
        for t_m in link_tiles
    ])


def _collapse_step(k: SimplicialComplex, theta: Simplex, tau: Simplex) -> List[MorseTile]:
    """Tiles extending the shelling over the double stars of a collapse pair
    (first the coface, then the free ridge); no critical tiles arise."""
    # stage one: the star of the double barycenter of tau
    boundary = shell_boundary_sd(tau, last=theta)
    base_tiles = boundary.base_tiles or (None,)
    link_tiles, _ = _link_shelling(k, tau)
    open_apex = vertex_tile(boundary.apex, open_=True)
    blocks = []
    for l, t_l in enumerate(boundary.tiles):
        for t_m in link_tiles:
            if l < boundary.prefix:
                blocks.append(_shell_entries_join(_entries(t_l), _entries(t_m)))
            else:
                second = open_apex if t_m is None else tile_join(open_apex, t_m)
                base_tile = base_tiles[l - boundary.prefix]
                blocks.append(_shell_entries_join(_entries(base_tile), _entries(second)))
    tiles = _double_star(tau, blocks)

    # stage two: the star of the double barycenter of theta
    u = tau.minus(theta).vertices[0]
    link2, star_split = _link_shelling(k, theta, start=u)
    assert link2[0] is not None, "a free ridge always has a coface"
    u_hat = bary([u])
    blocks_a, blocks_b = [], []
    for t_l in base_tiles:
        for m, t_m in enumerate(link2):
            if m < star_split:
                head = _entries(t_l) + ((u_hat, CLOSED),)
                inner = _split_cone_tile(t_m, u_hat)
                blocks_a.append(_shell_entries_join(head, _entries(inner)))
            else:
                blocks_b.append(_shell_entries_join(_entries(t_l), _entries(t_m)))
    return tiles + _double_star(theta, blocks_a + blocks_b)


def shell_sd2_from_dmf(
    k: SimplicialComplex, f: DiscreteMorseFunction
) -> Tuple[Tiling, Census]:
    """Morse shelling of sd²(K) whose critical tiles match the critical
    faces of f index by index.

    The function is canonicalized if needed.  Steps of the induced
    filtration are processed in order; a critical face of dimension d adds
    one critical tile of index d, a collapse pair adds none.
    """
    if k.is_void:
        raise ValueError("cannot shell the void complex")
    if not validate(k, f).is_canonical:
        f = canonicalize(k, f)
    steps = filtration(k, f).steps
    tiles: List[MorseTile] = []
    for i, step in enumerate(steps):
        if step.is_critical:
            tiles.extend(_critical_step(k, step.critical, first=i == 0))
        else:
            theta, tau = step.collapse
            tiles.extend(_collapse_step(k, theta, tau))
    critical = critical_census(k, f)
    census = Census(critical, len(tiles) - sum(critical.values()))
    space = barycentric(barycentric(RelativeComplex(k)))
    return Tiling(space, tuple(tiles)), census
