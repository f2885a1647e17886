import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from morseshell.catalog import boundary_sphere, cone_over_circle, simplex_complex
from morseshell.complexes import EMPTY, Simplex, make_complex
from morseshell.engine import shell_sd2_from_dmf
from morseshell.labels import atom
from morseshell.morse import (
    DiscreteMorseFunction,
    canonicalize,
    critical_faces,
    dmf_from_matching,
    filtration,
    greedy_collapse_dmf,
    trivial_dmf,
    validate,
)
from morseshell.serial import dump_morse_json, load_morse_json
from morseshell.verify import mod2_betti

a, b, c, d = (atom(x) for x in "abcd")


def s(*labels):
    return Simplex(labels)


def edge():
    return make_complex([[a, b]])


def circle():
    return make_complex([[a, b], [b, c], [a, c]])


def dim_function(k):
    return DiscreteMorseFunction({f: Fraction(f.dim) for f in k.faces() if not f.is_empty})


# -- validation ---------------------------------------------------------------


def test_dimension_function_is_dmf_but_not_generic():
    rep = validate(circle(), dim_function(circle()))
    assert rep.is_dmf and rep.is_monotone
    assert not rep.is_semi_injective
    assert not rep.is_generic
    x, y = rep.witnesses["generic"]
    assert not (x < y or y < x)


def test_injective_monotone_function_is_canonical():
    k = edge()
    f = DiscreteMorseFunction({s(a): Fraction(0), s(b): Fraction(1), s(a, b): Fraction(2)})
    assert validate(k, f).is_canonical


def test_constant_function_is_not_dmf():
    k = make_complex([[a, b, c]])
    f = DiscreteMorseFunction({x: Fraction(0) for x in k.faces() if not x.is_empty})
    rep = validate(k, f)
    assert not rep.is_dmf
    assert len(rep.witnesses["dmf_up"]) >= 3


def test_validate_requires_total_function():
    with pytest.raises(ValueError):
        validate(edge(), DiscreteMorseFunction({s(a): Fraction(0)}))


def test_validate_accepts_exactly_formans_functions_on_the_triangle():
    """All 4^7 functions on the closed triangle with values in {0,…,3}.
    f is a discrete Morse function iff every face has at most one
    codimension-one coface valued not above it and at most one
    codimension-one face valued not below it (Forman, Adv. Math. 1998,
    Def. 2.1); the critical faces are those with neither."""
    k = make_complex([[a, b, c]])
    faces = sorted((x for x in k.faces() if not x.is_empty), key=lambda x: x.key)
    covers = [(x, y) for x in faces for y in faces if x < y and y.dim == x.dim + 1]
    accepted = 0
    for values in product(range(4), repeat=len(faces)):
        f = dict(zip(faces, map(Fraction, values)))
        up = Counter(x for x, y in covers if f[y] <= f[x])
        down = Counter(y for x, y in covers if f[x] >= f[y])
        forman = max(up.values(), default=0) <= 1 and max(down.values(), default=0) <= 1
        g = DiscreteMorseFunction(f)
        assert validate(k, g).is_dmf == forman, values
        if forman:
            accepted += 1
            critical = {x for x in faces if not up[x] and not down[x]}
            assert set(critical_faces(k, g)) == critical, values
    assert accepted == 232


STRAY_VALUES = [
    (EMPTY, "function has a value on the empty face {}"),
    (s(a, c), "function has a value on {a c}, which is not a face of the complex"),
]


@pytest.mark.parametrize("stray, message", STRAY_VALUES, ids=["empty-face", "non-face"])
def test_validate_rejects_a_value_off_the_complex(stray, message):
    values = dict(dim_function(edge()).values)
    values[stray] = Fraction(7)
    with pytest.raises(ValueError, match=re.escape(message)):
        validate(edge(), DiscreteMorseFunction(values))


def test_shelling_rejects_a_value_off_the_complex_before_building():
    values = dict(trivial_dmf(edge()).values)
    values[s(a, c)] = Fraction(7)
    with pytest.raises(ValueError, match=re.escape(STRAY_VALUES[1][1])):
        shell_sd2_from_dmf(edge(), DiscreteMorseFunction(values))


# -- canonicalization -----------------------------------------------------------


def test_canonicalize_preserves_an_already_canonical_order():
    k = edge()
    f = DiscreteMorseFunction({s(a): Fraction(3), s(b): Fraction(7), s(a, b): Fraction(9)})
    g = canonicalize(k, f)
    order = sorted(f.values, key=lambda x: f[x])
    order2 = sorted(g.values, key=lambda x: g[x])
    assert order == order2
    assert validate(k, g).is_canonical


def test_canonicalize_trivial_function_makes_it_injective():
    k = circle()
    g = canonicalize(k, dim_function(k))
    assert validate(k, g).is_canonical
    assert len(set(g.values.values())) == len(g.values)


def test_canonicalize_keeps_matched_pair_equal():
    k = edge()
    f = DiscreteMorseFunction({s(a): Fraction(0), s(b): Fraction(5), s(a, b): Fraction(1)})
    # b is paired with ab since f(ab) <= f(b)
    g = canonicalize(k, f)
    assert g[s(b)] == g[s(a, b)]
    assert g[s(a)] < g[s(b)]
    assert validate(k, g).is_canonical
    assert set(critical_faces(k, g)) == {s(a)}


def test_canonicalize_rejects_non_dmf():
    k = make_complex([[a, b, c]])
    f = DiscreteMorseFunction({x: Fraction(0) for x in k.faces() if not x.is_empty})
    with pytest.raises(ValueError):
        canonicalize(k, f)


def test_canonicalize_idempotent_up_to_order():
    k = boundary_sphere(1)
    f = greedy_collapse_dmf(k)
    g = canonicalize(k, f)
    by_f = sorted(f.values, key=lambda x: (f[x], x.key))
    by_g = sorted(g.values, key=lambda x: (g[x], x.key))
    assert by_f == by_g


# -- critical faces ----------------------------------------------------------------


def test_trivial_function_makes_every_face_critical():
    k = circle()
    f = trivial_dmf(k)
    crits = critical_faces(k, f)
    assert set(crits) == {x for x in k.faces() if not x.is_empty}
    assert all(crits[x] == x.dim for x in crits)


def test_collapsing_edge_has_single_critical_vertex():
    k = edge()
    f = dmf_from_matching(k, [(s(b), s(a, b))])
    assert set(critical_faces(k, f)) == {s(a)}


def test_critical_faces_read_the_canonical_form():
    """Distinct values do not make a face critical: f(ab) = 1 <= f(b) = 2
    pairs b with ab, so a alone is critical."""
    k = edge()
    f = DiscreteMorseFunction({s(a): Fraction(0), s(b): Fraction(2), s(a, b): Fraction(1)})
    assert critical_faces(k, f) == {s(a): 0}


def test_circle_greedy_census_is_one_one():
    k = circle()
    f = greedy_collapse_dmf(k)
    crits = critical_faces(k, f)
    by_index = sorted(crits.values())
    assert by_index == [0, 1]


# -- filtration ---------------------------------------------------------------------


def test_filtration_of_trivial_function_on_edge():
    k = edge()
    steps = filtration(k, trivial_dmf(k)).steps
    assert [st.faces() for st in steps] == [(s(a),), (s(b),), (s(a, b),)]
    assert all(st.is_critical for st in steps)


def test_filtration_with_collapse_pair():
    k = edge()
    f = dmf_from_matching(k, [(s(b), s(a, b))])
    steps = filtration(k, f).steps
    assert steps[0].critical == s(a)
    assert steps[1].collapse == (s(b), s(a, b))


def test_filtration_of_minimal_circle_function():
    k = circle()
    f = greedy_collapse_dmf(k)
    steps = filtration(k, f).steps
    kinds = ["critical" if st.is_critical else "collapse" for st in steps]
    assert kinds.count("critical") == 2
    assert kinds.count("collapse") == 2
    assert steps[0].is_critical and steps[0].critical.dim == 0
    assert steps[-1].is_critical and steps[-1].critical.dim == 1


def test_filtration_prefixes_are_subcomplexes():
    k = cone_over_circle()
    f = greedy_collapse_dmf(k)
    seen = {EMPTY}
    for step in filtration(k, f).steps:
        for face in step.faces():
            assert all(r in seen for r in face.ridges())
            seen.add(face)
    assert len(seen) - 1 == len([x for x in k.faces() if not x.is_empty])


# -- generators ------------------------------------------------------------------------


def test_greedy_collapses_cone_to_a_point():
    k = cone_over_circle()
    f = greedy_collapse_dmf(k)
    crits = critical_faces(k, f)
    assert len(crits) == 1
    assert list(crits.values()) == [0]


def test_greedy_collapses_solid_simplex():
    k = simplex_complex(3)
    crits = critical_faces(k, greedy_collapse_dmf(k))
    assert list(crits.values()) == [0]


def test_greedy_on_sphere_needs_at_least_two_critical_faces():
    k = boundary_sphere(2)
    crits = critical_faces(k, greedy_collapse_dmf(k))
    assert len(crits) >= 2


def test_greedy_is_deterministic():
    k = boundary_sphere(2)
    f = greedy_collapse_dmf(k)
    g = greedy_collapse_dmf(k)
    assert f.values == g.values


# -- invariants --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [edge, circle, cone_over_circle, lambda: boundary_sphere(2), lambda: simplex_complex(3)],
)
def test_signed_critical_count_is_euler_characteristic(builder):
    k = builder()
    for f in (trivial_dmf(k), greedy_collapse_dmf(k)):
        crits = critical_faces(k, f)
        signed = sum((-1) ** idx for idx in crits.values())
        assert signed == k.euler()


@pytest.mark.parametrize("builder", [circle, cone_over_circle, lambda: boundary_sphere(2)])
def test_weak_morse_inequalities(builder):
    k = builder()
    betti = mod2_betti(k)
    for f in (trivial_dmf(k), greedy_collapse_dmf(k)):
        census = {}
        for idx in critical_faces(k, f).values():
            census[idx] = census.get(idx, 0) + 1
        for i, bi in enumerate(betti):
            assert census.get(i, 0) >= bi


# -- files -------------------------------------------------------------------------------


def test_morse_value_file_round_trip():
    k = circle()
    f = greedy_collapse_dmf(k)
    text = dump_morse_json(f)
    g = load_morse_json(text, k)
    assert g.values == f.values


def test_morse_matching_file():
    k = edge()
    text = '{"pairs": [[["b"], ["a", "b"]]]}'
    f = load_morse_json(text, k)
    assert set(critical_faces(k, f)) == {s(a)}
