"""Subdivisions on flag keys, and the shelling check on generators.

``barycentric_complex`` keeps a subdivision's facets as vertex tuples and
builds ``Simplex`` facets only on first read; ``barycentric`` and ``join``
build their pairs with the trusted ``complexes._relative``; and the
verifier's shelling check reads each tile's generators, walking a missing
closure only where that argument stops.  Each is held here against what it
replaced: the set-and-sort build of sd(K), the validating
``RelativeComplex(...)``, and the walk over every closure
(``oracles.check_tiles_walk_oracle``), on honest and broken tilings.
"""
import pytest

from oracles import all_tiles_on, barycentric_oracle, check_tiles_walk_oracle
from test_certificates import _join_pairs, _mutations
from test_engine_kernel import CATALOG
from test_rows import FUNCTIONS, SD2_CORPUS

import morseshell.verify as verify
from morseshell.complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    _simplex,
    barycentric,
    barycentric_complex,
    empty_complex,
    join,
    join_complexes,
    make_complex,
    void_complex,
)
from morseshell.engine import shell_sd2_from_dmf, shell_sd_join
from morseshell.tiles import tile_to_relative
from morseshell.verify import Certificate


# -- subdivisions hold flag keys -------------------------------------------------


def _set_and_sort(k):
    """sd(K) as it was built before: every maximal flag of the sort rule
    as a ``Simplex``, deduplicated in a set, sorted and absorbed by the
    validating constructor."""
    return SimplicialComplex(set(barycentric_oracle(k).facets))


NON_PURE = make_complex([["a", "b", "c"], ["c", "d"], ["e"]])
SUBDIVIDED = {"non-pure": NON_PURE, "void": void_complex(), "empty": empty_complex(), **CATALOG}


@pytest.mark.parametrize("name", sorted(SUBDIVIDED))
def test_sd_keeps_flag_keys_and_builds_the_set_and_sort_facets(name):
    # a new complex object, so that neither subdivision is kept from
    # another test
    k = SimplicialComplex(SUBDIVIDED[name].facets)
    for depth in (1, 2):
        fresh = barycentric_complex(k)
        want = _set_and_sort(k)
        assert fresh._facets is None
        # equality and hashing read the keys: no Simplex facet is built
        assert fresh == want and hash(fresh) == hash(want)
        assert fresh._facets is None
        assert len(fresh.facet_keys) == len(set(fresh.facet_keys))
        assert set(fresh.facet_keys) == {f.vertices for f in want.facets}
        assert fresh.facets == want.facets
        assert fresh.dim == want.dim and fresh.vertices() == want.vertices()
        assert fresh.faces() == want.faces()
        k = fresh


def test_sd_of_the_degenerate_complexes():
    assert barycentric_complex(void_complex()).facet_keys == ()
    assert barycentric_complex(empty_complex()).facet_keys == ((),)
    assert barycentric_complex(empty_complex()).facets == (EMPTY,)


def test_complexes_with_the_same_facets_in_another_order_are_equal():
    sd = barycentric_complex(CATALOG["triangle"])
    turned = SimplicialComplex._of_keys(tuple(reversed(sd.facet_keys)))
    assert turned.facet_keys != sd.facet_keys
    assert turned == sd and hash(turned) == hash(sd)
    assert turned.facets == sd.facets
    fewer = SimplicialComplex._of_keys(sd.facet_keys[1:])
    assert fewer != sd and sd != fewer


# -- trusted pairs -------------------------------------------------------------------


def _validated(s):
    """The pair as the validating constructor builds it from s's parts."""
    return RelativeComplex(s.ambient, s.missing)


def _assert_same_pair(got, want):
    assert got == want
    assert got.ambient.facets == want.ambient.facets
    assert got.missing.facets == want.missing.facets


def _relative_tiles():
    """The relative complexes of every tile on a vertex, an edge and a
    triangle: closed, open, dotted and the Morse tiles between."""
    for vs in ("v", "vw", "vwx"):
        for t in all_tiles_on(Simplex(vs)):
            yield tile_to_relative(t)


def test_barycentric_equals_the_validated_pair():
    spaces = [RelativeComplex(k) for k in SUBDIVIDED.values()] + list(_relative_tiles())
    for s in spaces:
        once = barycentric(s)
        _assert_same_pair(once, _validated(
            RelativeComplex(barycentric_complex(s.ambient), barycentric_complex(s.missing))
        ))
        _assert_same_pair(barycentric(once), RelativeComplex(
            barycentric_complex(once.ambient), barycentric_complex(once.missing)
        ))


def _join_validated(s1, s2):
    """``join`` as it was built before, through the validating constructor."""
    amb = join_complexes(s1.ambient, s2.ambient)
    m1 = join_complexes(s1.missing, s2.ambient)
    m2 = join_complexes(s1.ambient, s2.missing)
    return RelativeComplex(amb, SimplicialComplex(m1.facets + m2.facets))


def test_join_equals_the_validated_pair_on_the_criterion_3_pairs():
    count = 0
    for t, tp in _join_pairs():
        s1, s2 = tile_to_relative(t), tile_to_relative(tp)
        _assert_same_pair(join(s1, s2), _join_validated(s1, s2))
        count += 1
    assert count == 318


def test_join_equals_the_validated_pair_on_relative_tiles():
    left = list(_relative_tiles())
    right = [tile_to_relative(t) for vs in ("p", "pq") for t in all_tiles_on(Simplex(vs))]
    for s1 in left:
        for s2 in right:
            _assert_same_pair(join(s1, s2), _join_validated(s1, s2))


# -- the shelling check on generators --------------------------------------------


def _assert_walks_agree(space, tiling, case):
    got, want = Certificate(), Certificate()
    got_space, got_owner, got_missing = verify._check_tiles(got, space, tiling)
    want_space, want_owner, want_missing = check_tiles_walk_oracle(want, space, tiling)
    flags = ("partition_ok", "shelling_ok", "tiles_ok")
    assert [getattr(got, f) for f in flags] == [getattr(want, f) for f in flags], case
    assert got.census == want.census, case
    assert got.failures == want.failures, case
    assert set(got_space) == want_space, case
    assert list(got_owner.items()) == list(want_owner.items()), case
    assert got_missing == want_missing, case


@pytest.mark.parametrize("kind", sorted(FUNCTIONS))
@pytest.mark.parametrize("name", sorted(SD2_CORPUS))
def test_generator_check_gives_the_closure_walk_certificate_on_sd2_tilings(name, kind):
    k = SD2_CORPUS[name]()
    made, _ = shell_sd2_from_dmf(k, FUNCTIONS[kind](k))
    for case, tiling in _mutations(made).items():
        _assert_walks_agree(made.space, tiling, case)


def test_generator_check_gives_the_closure_walk_certificate_on_join_pairs():
    for t, tp in _join_pairs():
        made = shell_sd_join(t, tp)[0]
        for case, tiling in _mutations(made).items():
            _assert_walks_agree(made.space, tiling, (t, tp, case))


def test_pickers_list_the_faces_outside_the_closure_and_the_generators():
    """A tile's owned faces, built from its key by the cached pickers, are
    the faces of its simplex outside the missing closure, in key order."""
    vs = Simplex("abcde").vertices
    for n in range(6):
        key = vs[:n]
        for gens in (frozenset(), frozenset({0}), frozenset({(1 << n) - 1}),
                     frozenset((1 << n) - 1 ^ 1 << i for i in range(0, n, 2))):
            owned, generators = verify._pickers(n, gens)
            faces = list(_simplex(key).faces())
            inside = [any(set(f.vertices) <= set(key[i] for i in range(n) if g >> i & 1) for g in gens) for f in faces]
            assert [pick(key) for pick in owned] == [f.vertices for f, x in zip(faces, inside) if not x]
            assert sorted(pick(key) for pick in generators) == sorted(
                tuple(key[i] for i in range(n) if g >> i & 1) for g in gens
            )
