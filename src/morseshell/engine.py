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

Inside the engine every tile is a compact triple ``(labels, omitted,
morse)``: the vertex labels in flag order (the outermost apex first, each
later label one barycenter deeper), an int mask of positions whose ridge is
missing (bit i stands for the ridge omitting ``labels[i]``; the open
vertex's ridge ∅ is bit 0), and an int mask of the positions of the Morse
face, -1 for a basic tile.  Coning prepends the apex and shifts both masks,
setting bit 0 of ``omitted`` for a base-deprived cone; the only other tile
operations are reading the (vertex, role) entries off the masks, setting the
Morse face to a bottom segment of the flag (``_subtract``), splitting off a
cone apex and dotting the closed tile.  Each output triple becomes a row of
the ``Tiling`` in one place, ``_row``, which puts its labels in key order
and permutes its masks to match: once per output tile in ``_double_star``,
and at the return of each public function.  The masks stay as the kernel
made them, so a codimension-one Morse face left by ``_subtract`` stays a
Morse face.  ``MorseTile``s are built only as the view ``Tiling.tiles``,
for callers who read it; a public function's input tile enters through the
verifier's shape of its missing set (``_input_entries``).

The join recursion reads its labels only through their label-key order
and names each barycenter by the set of vertices it absorbs, so it runs on
position templates.  ``_shell_entries_join`` replaces each (vertex, role)
entry by (rank, role), the vertex's rank in the label-key order of the
join's vertices; inside the template a barycenter is the bitmask of the
ranks it absorbs.  ``_join_template`` shells each pair of (rank, role)
patterns once and keeps the block, over masks only, in a bounded LRU
cache; each call then maps the block's masks to barycenter labels, each
mask once.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from .complexes import (
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    _face_keys,
    _sorted_by_key,
    _subsets,
    barycentric,
    barycentric_complex,
    join,
    link_complex,
)
from .labels import Label, bary, label_key
from .morse import DiscreteMorseFunction, filtration
from .tiles import MorseTile, tile_to_relative
from .verify import Census, Row, _encode, _Shape, _tile_shape, critical_census

__all__ = [
    "Tiling",
    "shell_sd_join",
    "shell_sd_tile",
    "shell_sd_relative",
    "shell_boundary_sd",
    "shell_sd2_from_dmf",
]

CLOSED, OPEN, DOTTED = "closed", "open", "dotted"
_ROLE_ORDER = {CLOSED: 0, OPEN: 1, DOTTED: 2}
Entry = Tuple[Label, str]
Compact = Tuple[Tuple[Label, ...], int, int]  # labels, omitted-ridge mask, Morse mask
Block = Tuple[Sequence[Compact], int]  # shelled tiles and their segment length
Pattern = Tuple[Tuple[int, str], ...]  # (rank, role) pairs: a join side's shape
Template = Tuple[Tuple[Compact, ...], int, Tuple[int, ...]]  # tiles over masks, segment, masks
EMPTY_TILE: Compact = ((), 0, -1)  # the closed empty simplex, the one tile of sd(∅)


class Tiling:
    """An ordered list of tiles anchored at facets of a relative complex.

    The tiles are held as rows (``rows``, of type ``verify.Row``), and the
    engine builds its tilings from rows.
    ``Tiling(space, tiles)`` takes ``MorseTile``s, which the verifier's
    encoder (``verify._encode``) turns into rows at construction; a tile
    whose generators a row cannot hold keeps the shape the encoder derived,
    in ``kept_shapes`` by position.  ``tiles`` is the ``MorseTile`` view,
    built from the rows by ``MorseTile._of_row`` on first read and kept.
    Two tilings are equal when their spaces and tiles are.
    """

    __slots__ = ("space", "rows", "kept_shapes", "_tiles")

    def __init__(self, space: RelativeComplex, tiles: Iterable[MorseTile]):
        self.space = space
        self._tiles: Optional[Tuple[MorseTile, ...]] = tuple(tiles)
        encoded = [_encode(tile) for tile in self._tiles]
        self.rows: Tuple[Row, ...] = tuple(row for row, _ in encoded)
        self.kept_shapes: Dict[int, _Shape] = {p: shape for p, (_, shape) in enumerate(encoded) if shape is not None}

    @classmethod
    def _of_rows(cls, space: RelativeComplex, rows: Iterable[Row]) -> "Tiling":
        t = cls.__new__(cls)
        t.space, t._tiles, t.rows, t.kept_shapes = space, None, tuple(rows), {}
        return t

    @property
    def tiles(self) -> Tuple[MorseTile, ...]:
        if self._tiles is None:
            self._tiles = tuple(map(MorseTile._of_row, self.rows))
        return self._tiles

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tiling) and self.space == other.space and self.tiles == other.tiles

    def __hash__(self) -> int:
        return hash((self.space, len(self)))

    def __repr__(self) -> str:
        return f"Tiling({self.space!r}, {len(self)} tiles)"


# -- compact tiles -------------------------------------------------------------


@lru_cache(maxsize=4096)
def _permuted(order: Tuple[int, ...], omitted: int, morse: int) -> Tuple[int, int]:
    """Masks over the positions of a triple carried to the positions
    ``order`` lists: bit r of the result is bit ``order[r]`` of the mask."""
    def carry(mask: int) -> int:
        return sum(1 << r for r, i in enumerate(order) if mask >> i & 1)

    return carry(omitted), -1 if morse < 0 else carry(morse)


def _row(t: Compact) -> Row:
    """The row of a flag-order triple: its labels in key order, its masks
    permuted to match."""
    labels, omitted, morse = t
    keys = [lab._key for lab in labels]
    order = tuple(sorted(range(len(labels)), key=keys.__getitem__))
    return (tuple(map(labels.__getitem__, order)),) + _permuted(order, omitted, morse)


def _input_entries(t: MorseTile) -> Tuple[Entry, ...]:
    """The (vertex, role) entries of a public function's input tile, read
    off the verifier's shape of its missing set (``verify._tile_shape``):
    the omitted mask is its restriction and the Morse mask its top.  A tile
    that shape rejects raises ValueError."""
    shape = _tile_shape(t)
    if shape.reason is not None:
        raise ValueError(f"not a Morse tile: {shape.reason}")
    return _entries((t.underlying.vertices, shape.restriction, shape.top))


def _cone(apex: Label, t: Compact, dotted: bool = False) -> Compact:
    """Cone with the given apex over a tile, deprived of its base when
    ``dotted``; a Morse face of codimension one folds into the ridges."""
    labels, omitted, morse = t
    if apex in labels:
        raise ValueError(f"apex {apex!r} already a vertex of the tile")
    omitted = omitted << 1 | dotted
    if morse >= 0:
        morse = morse << 1 | 1
        if morse.bit_count() == len(labels):
            omitted |= ((2 << len(labels)) - 1) ^ morse
            morse = -1
    return (apex,) + labels, omitted, morse


def _cone_block(apex: Label, tiles: Sequence[Compact], deprive: int) -> List[Compact]:
    return [_cone(apex, t, i < deprive) for i, t in enumerate(tiles)]


def _is_closed(t: Compact) -> bool:
    return t[1] == 0 and t[2] < 0


def _dotted(t: Compact) -> Compact:
    """A closed tile deprived of its empty face: the open vertex for a
    vertex, the empty Morse face otherwise."""
    labels = t[0]
    return (labels, 1, -1) if len(labels) == 1 else (labels, 0, 0)


def _strip_empty(tiles: List[Compact]) -> List[Compact]:
    """Deprive the unique closed tile, if any, of its empty face."""
    closed = [i for i, t in enumerate(tiles) if _is_closed(t)]
    if not closed:
        return list(tiles)
    assert len(closed) == 1, "several tiles own the empty face"
    out = list(tiles)
    out[closed[0]] = _dotted(out[closed[0]])
    return out


# -- join forms --------------------------------------------------------------


def _regroup(entries: Sequence[Entry]) -> Tuple[Entry, ...]:
    """(vertex, role) entries grouped closed, open, dotted, each group in
    label-key order."""
    return tuple(sorted(entries, key=lambda e: (_ROLE_ORDER[e[1]], e[0]._key)))


def _entries(t: Compact) -> Tuple[Entry, ...]:
    """The (vertex, role) pairs of a tile's canonical triple, grouped closed,
    open, dotted; none for the empty tile.  The open part is the omitted
    positions, the closed part the rest of the Morse face (all the rest for
    a basic tile), the dotted part the positions off the Morse face."""
    labels, omitted, morse = t
    return _regroup([
        (lab, OPEN if omitted >> i & 1 else CLOSED if morse < 0 or morse >> i & 1 else DOTTED)
        for i, lab in enumerate(labels)
    ])


def _slice(entries: Sequence[Entry], j: int) -> Tuple[Tuple[Entry, ...], Tuple[Entry, ...]]:
    """Entries before and after position j; linking a dotted vertex closes
    the rest of the dotted part."""
    _, role = entries[j]
    rest = tuple(entries[:j]) + tuple(entries[j + 1:])
    if role == DOTTED:
        rest = tuple((v, CLOSED if r == DOTTED else r) for v, r in rest)
    return rest[:j], rest[j:]


def _concat(blocks: Sequence[Block]) -> Tuple[List[Compact], int]:
    """Chain shelled blocks: the segments of all blocks first, then the
    rest; returns the tiles and the length of their segment."""
    head = [t for block, pre in blocks for t in block[:pre]]
    return head + [t for block, pre in blocks for t in block[pre:]], len(head)


def _by_role(entries: Pattern) -> Pattern:
    """(rank, role) pairs grouped closed, open, dotted, each group by rank:
    ``_regroup`` on ranks."""
    return tuple(sorted(entries, key=lambda e: (_ROLE_ORDER[e[1]], e[0])))


def _template_tile(entries: Pattern, walked: int) -> List[Compact]:
    """Shell the subdivision of a single tile given as (rank, role) pairs;
    every barycenter also absorbs the ranks already ``walked``."""
    if not entries:
        return []
    if len(entries) == 1:
        r, role = entries[0]
        return [((1 << r | walked,), int(role != CLOSED), -1)]
    heads = [e for e in entries if e[1] == CLOSED] or [e for e in entries if e[1] == OPEN]
    if heads:
        rest = tuple(e for e in entries if e != heads[0])
        return _template_join(heads[:1], rest, walked)[0]
    # dotted simplex: shell the closed simplex, then remove the empty face
    return _strip_empty(_template_tile(tuple((r, CLOSED) for r, _ in entries), walked))


def _template_join(left: Pattern, right: Pattern, walked: int) -> Tuple[List[Compact], int]:
    """Shell sd(T ∗ T′) on (rank, role) pairs, walking the vertices of T
    first.

    Returns the tiles and the number of leading tiles covering the union of
    stars of the barycenters of T's vertices.  Each vertex contributes the
    cone over a recursively shelled link, deprived of its base over the part
    of the link lying in earlier stars.  Either side may be empty: the other
    tile is then shelled alone, all of it in the segment when it is T.  The
    link is shelled with the vertex added to ``walked``, so its barycenters
    come out as in the star.
    """
    if not right:
        tiles = _template_tile(left, walked)
        return tiles, len(tiles)
    if not left:
        return _template_tile(right, walked), 0
    left = _by_role(left)
    entries = left + _by_role(right)
    tiles: List[Compact] = []
    prefix = 0
    for j, (rj, _) in enumerate(entries):
        block, bpre = _template_join(*_slice(entries, j), walked | 1 << rj)
        tiles.extend(_cone_block(1 << rj | walked, block, bpre))
        if j < len(left):
            prefix = len(tiles)
    if any(role != CLOSED for _, role in entries):
        tiles = _strip_empty(tiles)
    return tiles, prefix


@lru_cache(maxsize=1024)
def _join_template(left: Pattern, right: Pattern) -> Template:
    """The shelled block of a join shape, memoized: its tiles over position
    masks, its segment length, and the masks its tiles use."""
    tiles, prefix = _template_join(left, right, 0)
    masks = tuple({m for labels, _, _ in tiles for m in labels})
    return tuple(tiles), prefix, masks


def _shell_entries_join(left: Sequence[Entry], right: Sequence[Entry]) -> Tuple[List[Compact], int]:
    """Shell sd(T ∗ T′) walking the vertices of T first, on the position
    template of the two (vertex, role) patterns; either side may be empty.

    The block depends on the labels only through their label-key order, so
    each vertex becomes its rank in that order, the template is shelled once
    per pair of (rank, role) patterns, and each barycenter mask of the
    template is mapped to its label once per call.  The order of the given
    entries matters, as in the template.
    """
    labels = sorted([v for v, _ in left] + [v for v, _ in right], key=label_key)
    rank = {v: i for i, v in enumerate(labels)}
    if len(rank) < len(labels):
        raise ValueError("join entries repeat a vertex")
    tiles, prefix, masks = _join_template(
        tuple((rank[v], role) for v, role in left), tuple((rank[v], role) for v, role in right)
    )
    hat = {m: bary([v for i, v in enumerate(labels) if m >> i & 1]) for m in masks}.__getitem__
    return [(tuple(map(hat, ms)), omitted, morse) for ms, omitted, morse in tiles], prefix


def _shell_entries_tile(entries: Sequence[Entry]) -> List[Compact]:
    """Shell the subdivision of a single tile given as (vertex, role) pairs."""
    return _shell_entries_join(entries, ())[0]


# -- public tile-level shellings ---------------------------------------------


def shell_sd_tile(t: MorseTile) -> Tiling:
    """A Morse shelling of sd(T).

    The census matches the tile: one critical tile of the same index when T
    is critical, none otherwise; for basic T all tiles are basic or critical.
    """
    if t.underlying.is_empty:
        raise ValueError("cannot shell the empty tile")
    tiles = _shell_entries_tile(_input_entries(t))
    return Tiling._of_rows(barycentric(tile_to_relative(t)), map(_row, tiles))


def shell_sd_join(t: MorseTile, tp: MorseTile) -> Tuple[Tiling, int]:
    """A Morse shelling of sd(T ∗ T′) beginning with the stars of the
    barycenters of T's vertices; T must be basic and both non-empty.

    Returns the tiling together with the length of that initial segment.
    Critical-tile contract: when T is open and T′ closed there are exactly
    two critical tiles, of index dim T inside the initial segment and
    dim T + 1 outside; otherwise there is exactly one critical tile iff
    T ∗ T′ is critical, inside the segment iff it is a closed simplex.
    """
    t._check_join(tp)
    tiles, prefix = _shell_entries_join(_input_entries(t), _input_entries(tp))
    space = barycentric(join(tile_to_relative(t), tile_to_relative(tp)))
    return Tiling._of_rows(space, map(_row, tiles)), prefix


def _boundary_sd(
    sigma: Simplex, last: Optional[Simplex] = None
) -> Tuple[List[Compact], int, Label, List[Compact]]:
    """Tiles, segment length, last apex and base tiles of
    ``shell_boundary_sd``; ridge j is the closed ridge minus the ridges it
    shares with ridges 0..j-1, that is, open at the vertices they omit."""
    if sigma.dim < 1:
        raise ValueError("the boundary of a vertex cannot be shelled")
    ridges = _sorted_by_key(sigma.ridges())
    if last is None:
        last = ridges[-1]
    if last not in ridges:
        raise ValueError(f"{last!r} is not a ridge of {sigma!r}")
    ridges = [r for r in ridges if r != last] + [last]
    omits = [sigma.minus(r).vertices[0] for r in ridges]
    tiles: List[Compact] = []
    for j, rho in enumerate(ridges[:-1]):
        earlier = omits[:j]
        entries = _regroup([(w, OPEN if w in earlier else CLOSED) for w in rho])
        tiles.extend(_shell_entries_tile(entries))
    prefix = len(tiles)
    apex = bary(last.vertices)
    if last.dim == 0:
        base: List[Compact] = []
        tiles.append(((apex,), 1, -1))
    else:
        base = _boundary_sd(last)[0]
        tiles.extend(_cone_block(apex, base, deprive=len(base)))
    return tiles, prefix, apex, base


def shell_boundary_sd(sigma: Simplex, last: Optional[Simplex] = None) -> Tuple[Tiling, int]:
    """Shell sd(∂σ) from a facet order of ∂σ ending at ``last``: the
    tiling and the length of its initial segment, which covers sd(∂σ minus
    ``last``).  The tail is the cone at the barycenter of ``last`` over
    ``shell_boundary_sd(last)``, deprived of its base (the open apex alone
    for a vertex); the first tile is the one closed tile, the last the one
    open."""
    tiles, prefix, _, _ = _boundary_sd(sigma, last)
    space = RelativeComplex(barycentric_complex(SimplicialComplex(sigma.ridges())))
    return Tiling._of_rows(space, map(_row, tiles)), prefix


# -- vertex-star-first shellings of sd(S) ------------------------------------


def _subtract(t: Compact, m_faces: Collection[Tuple[Label, ...]]) -> Compact:
    """Remove the faces of a missing subcomplex, given by vertex tuples,
    from a flag tile.

    The removable part of a tile is the closure of the longest bottom
    segment of its flag lying in the subcomplex; that segment becomes the
    Morse face (it always nests with an existing one).  The labels are in
    flag order, so the segment is a run of leading positions.
    """
    if not m_faces:
        return t
    labels, omitted, morse = t
    seg = 0
    for lab in labels:
        if lab.members not in m_faces:
            break
        seg += 1
    if not seg:
        if _is_closed(t) and () in m_faces:
            return _dotted(t)
        return t
    if omitted >> seg:  # a missing ridge omits a later position
        return t
    seg_mask = (1 << seg) - 1
    if morse >= 0 and not seg_mask & ~morse:
        return t
    assert morse < 0 or not morse & ~seg_mask
    return labels, omitted, seg_mask


def _shell_relative(s: RelativeComplex, v: Label) -> Tuple[List[Compact], int]:
    """Tiles and star-segment length of ``shell_sd_relative``."""
    k, l = s.ambient, s.missing
    if not any(v in f for f in k.facets):
        raise ValueError(f"{v!r} is not a vertex of the ambient complex")
    # the facets are in key order already
    star = [f for f in k.facets if v in f]
    rest = [f for f in k.facets if v not in f]
    seen = _face_keys(l.facet_keys)
    blocks: List[Block] = []
    for facet in star + rest:
        vs = facet.vertices
        faces = list(_subsets(vs))
        m_faces = {c for c in faces if c in seen}

        def role(w: Label) -> str:
            """Open at w when the ridge omitting w is missing."""
            return OPEN if tuple(x for x in vs if x is not w) in m_faces else CLOSED

        head = ((v, role(v)),) if v in facet else ()
        side = _regroup([(w, role(w)) for w in vs if w is not v])
        block, bpre = _shell_entries_join(head, side)
        blocks.append(([_subtract(t, m_faces) for t in block], bpre))
        seen.update(faces)
    return _concat(blocks)


def shell_sd_relative(s: RelativeComplex, v: Label) -> Tuple[Tiling, int]:
    """A Morse shelling of sd(S) beginning with the star of v̂.

    Facets through v are handled first.  Each facet contributes the relative
    facet it adds over the earlier ones and the missing part of S; its basic
    part is shelled through the join machinery (rooted at v for the star
    facets) and the leftover faces of codimension two and more are removed
    by ``_subtract``.  Returns the tiling and the size of the star segment.
    """
    tiles, prefix = _shell_relative(s, v)
    return Tiling._of_rows(barycentric(s), map(_row, tiles)), prefix


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
) -> Tuple[List[Compact], int]:
    """Tiles of a Morse shelling of sd(lk_K σ), its unique closed tile
    first, plus the star-segment length for the chosen start vertex; an
    empty link has the one empty tile ``EMPTY_TILE``."""
    lk = link_complex(k, sigma)
    if lk.dim < 0:
        return [EMPTY_TILE], 0
    if start is None:
        start = min(lk.vertices())
    return _shell_relative(RelativeComplex(lk), start)


def _split_cone_tile(t: Compact, apex: Label) -> Compact:
    """Write a tile as apex ∗ T and return T, ``EMPTY_TILE`` when T is empty."""
    labels, omitted, morse = t
    assert apex in labels
    p = labels.index(apex)
    assert not omitted >> p & 1, "tile is not a cone with the given apex"
    low = (1 << p) - 1
    base = labels[:p] + labels[p + 1:]
    omitted = omitted & low | omitted >> (p + 1) << p
    if morse >= 0:
        assert morse >> p & 1, "Morse face does not contain the apex"
        morse = morse & low | morse >> (p + 1) << p
        if not morse and len(base) == 1:
            return base, 1, -1
        if not morse:
            return base, omitted, 0
    if not base:
        return EMPTY_TILE
    return base, omitted, morse


def _double_star(sigma: Simplex, blocks: Sequence[Block], strip: bool = False) -> List[Row]:
    """Rows of the star of the double barycenter of σ from shelled blocks
    of its link: the chained blocks are carried onto the link by
    ``_sd2_transport`` and coned, their segment deprived of its base, and
    the closed tile is dotted when ``strip`` is set.  Each tile becomes a
    row here, once."""
    tiles, prefix = _concat(blocks)
    lift = _sd2_transport(sigma)
    apex = bary([bary(sigma.vertices)])
    coned = []
    for i, (labels, omitted, morse) in enumerate(tiles):
        image = tuple(map(lift, labels))
        if len(set(image)) != len(image):
            raise ValueError(f"label map is not injective on the tile on {labels!r}")
        coned.append(_cone(apex, (image, omitted, morse), i < prefix))
    if strip:
        coned = _strip_empty(coned)
    return [_row(t) for t in coned]


def _critical_step(k: SimplicialComplex, sigma: Simplex, first: bool) -> List[Row]:
    """Rows extending the shelling over the double star of a critical face;
    exactly one of them is critical, of index dim σ."""
    if sigma.dim == 0:
        lk = link_complex(k, sigma)
        if lk.dim < 0:
            return [((bary([bary(sigma.vertices)]),), int(not first), -1)]
        sd_lk = barycentric_complex(lk)
        model, _ = _shell_relative(RelativeComplex(sd_lk), min(sd_lk.vertices()))
        return _double_star(sigma, [(model, 0)], strip=not first)
    link_entries = [_entries(t) for t in _link_shelling(k, sigma)[0]]
    return _double_star(sigma, [
        _shell_entries_join(_entries(t_l), e_m)
        for t_l in _boundary_sd(sigma)[0]
        for e_m in link_entries
    ])


def _collapse_step(k: SimplicialComplex, theta: Simplex, tau: Simplex) -> List[Row]:
    """Rows extending the shelling over the double stars of a collapse pair
    (first the coface, then the free ridge); no critical tiles arise."""
    # stage one: the star of the double barycenter of tau
    boundary, b_prefix, b_apex, b_base = _boundary_sd(tau, last=theta)
    base_entries = [_entries(t) for t in b_base] or [()]
    link_tiles, _ = _link_shelling(k, tau)
    link_entries = [_entries(t_m) for t_m in link_tiles]
    # the open apex joined with each link tile: a deprived cone over it
    open_entries = [_entries(_cone(b_apex, t_m, dotted=True)) for t_m in link_tiles]
    blocks = []
    for l, t_l in enumerate(boundary):
        if l < b_prefix:
            e_l = _entries(t_l)
            blocks.extend(_shell_entries_join(e_l, e_m) for e_m in link_entries)
        else:
            e_b = base_entries[l - b_prefix]
            blocks.extend(_shell_entries_join(e_b, e_o) for e_o in open_entries)
    tiles = _double_star(tau, blocks)

    # stage two: the star of the double barycenter of theta
    u = tau.minus(theta).vertices[0]
    link2, star_split = _link_shelling(k, theta, start=u)
    assert link2[0] != EMPTY_TILE, "a free ridge always has a coface"
    u_hat = bary([u])
    inner_entries = [_entries(_split_cone_tile(t_m, u_hat)) for t_m in link2[:star_split]]
    rest_entries = [_entries(t_m) for t_m in link2[star_split:]]
    blocks_a, blocks_b = [], []
    for e_l in base_entries:
        head = e_l + ((u_hat, CLOSED),)
        blocks_a.extend(_shell_entries_join(head, e_i) for e_i in inner_entries)
        blocks_b.extend(_shell_entries_join(e_l, e_m) for e_m in rest_entries)
    return tiles + _double_star(theta, blocks_a + blocks_b)


def shell_sd2_from_dmf(
    k: SimplicialComplex, f: DiscreteMorseFunction
) -> Tuple[Tiling, Census]:
    """Morse shelling of sd²(K) whose critical tiles match the critical
    faces of f index by index, with its census as the verifier counts it
    (``verify.critical_census``); ``verify.audit`` certifies that census.

    The steps are f's filtration (``morse.filtration``), in the one step
    order, its canonical form's: a critical step, a critical face of
    dimension d, adds one critical tile of index d, a collapse step none.
    """
    if k.is_void:
        raise ValueError("cannot shell the void complex")
    steps = filtration(k, f).steps
    rows: List[Row] = []
    for i, step in enumerate(steps):
        if step.is_critical:
            rows.extend(_critical_step(k, step.critical, first=i == 0))
        else:
            theta, tau = step.collapse
            rows.extend(_collapse_step(k, theta, tau))
    tiling = Tiling._of_rows(barycentric(barycentric(RelativeComplex(k))), rows)
    return tiling, critical_census(tiling)
