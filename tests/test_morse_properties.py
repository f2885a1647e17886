"""The Morse layer against its brute-force oracles on generated inputs:
random complexes up to dimension 3, random small-integer functions, and
random matchings (acyclic ones from random collapse sequences, and
arbitrary ones that may contain a cycle)."""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell.catalog import cone_over_circle, simplex_complex
from morseshell.complexes import make_complex
from morseshell.morse import (
    DiscreteMorseFunction,
    canonicalize,
    dmf_from_matching,
    filtration,
    greedy_collapse_dmf,
    trivial_dmf,
    validate,
)
from morseshell.serial import dump_morse_json, load_morse_json

from oracles import (
    assign_values_oracle,
    canonicalize_oracle,
    greedy_oracle,
    trivial_oracle,
    validate_oracle,
)

PROPERTY = settings(max_examples=120, deadline=None, database=None, derandomize=True)


@st.composite
def complexes(draw):
    """Up to six facets on up to six vertices, each of at most 4 vertices."""
    n = draw(st.integers(1, 6))
    facets = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), min_size=1, max_size=6)
    )
    return make_complex([[f"v{i}" for i in sorted(f)] for f in facets])


def faces_by_key(k):
    return sorted((s for s in k.faces() if not s.is_empty), key=lambda s: s.key)


@st.composite
def functions(draw):
    """A complex and f(σ) = scale·dim σ + noise with small integers; scale 0
    gives a plain random function, larger scales mostly Morse ones."""
    k = draw(complexes())
    faces = faces_by_key(k)
    scale = draw(st.integers(0, 2))
    noise = draw(st.lists(st.integers(-1, 2), min_size=len(faces), max_size=len(faces)))
    f = {s: Fraction(scale * s.dim + e) for s, e in zip(faces, noise)}
    return k, DiscreteMorseFunction(f)


def random_collapse_matching(k, rng: Random):
    """Pairs of a random collapse sequence: repeatedly collapse a random free
    (ridge, facet) pair, or now and then remove a random facet instead.
    Every such matching is acyclic."""
    remaining = set(faces_by_key(k))
    pairs = []
    while remaining:
        maximal = sorted(
            (s for s in remaining if not any(s < t for t in remaining)), key=lambda s: s.key
        )
        free = [
            (theta, tau)
            for tau in maximal
            for theta in tau.ridges()
            if theta in remaining and [t for t in remaining if theta < t] == [tau]
        ]
        if free and rng.random() < 0.85:
            pair = rng.choice(free)
            pairs.append(pair)
            remaining.difference_update(pair)
        else:
            remaining.discard(rng.choice(maximal))
    return pairs


def random_matching(k, rng: Random):
    """Disjoint random (ridge, coface) pairs; may contain a cycle."""
    used, pairs = set(), []
    for s in faces_by_key(k):
        cofaces = [t for t in faces_by_key(k) if s < t and t.dim == s.dim + 1]
        rng.shuffle(cofaces)
        for t in cofaces:
            if s not in used and t not in used and rng.random() < 0.5:
                pairs.append((s, t))
                used.update((s, t))
    return pairs


def outcome(fn, *args):
    """The values a call returns, or the text of the ValueError it raises."""
    try:
        return fn(*args).values
    except ValueError as err:
        return f"ValueError: {err}"


@PROPERTY
@given(functions())
def test_validate_matches_the_all_pairs_oracle(kf):
    k, f = kf
    got, want = validate(k, f), validate_oracle(k, f)
    assert (got.is_dmf, got.is_monotone, got.is_semi_injective, got.is_generic) == (
        want.is_dmf, want.is_monotone, want.is_semi_injective, want.is_generic
    )
    assert list(got.witnesses.items()) == list(want.witnesses.items())


@PROPERTY
@given(functions())
def test_canonicalize_matches_the_oracle_or_fails_alike(kf):
    k, f = kf
    assert outcome(canonicalize, k, f) == outcome(canonicalize_oracle, k, f)


@PROPERTY
@given(complexes(), st.randoms(use_true_random=False))
def test_generators_match_their_oracles(k, rng):
    """Each builder matches its oracle, and what it builds is canonical:
    canonicalize leaves it as it is."""
    assert trivial_dmf(k).values == trivial_oracle(k).values
    assert greedy_collapse_dmf(k).values == greedy_oracle(k).values
    matched = dmf_from_matching(k, random_collapse_matching(k, rng))
    for g in (trivial_dmf(k), greedy_collapse_dmf(k), matched):
        assert canonicalize(k, g).values == g.values
        assert validate(k, g).is_canonical


@PROPERTY
@given(functions())
def test_filtration_steps_along_the_canonical_form(kf):
    """f and its canonical form have the same steps, or both calls fail;
    most generated functions are not canonical."""
    k, f = kf

    def steps(make):
        try:
            return filtration(k, make()).steps
        except ValueError as err:
            return f"ValueError: {err}"

    assert steps(lambda: f) == steps(lambda: canonicalize(k, f))


@PROPERTY
@given(functions())
def test_loading_a_values_file_canonicalizes_it(kf):
    """A values file loads as canonicalize of its raw values, or fails alike;
    most generated functions are not canonical."""
    k, f = kf
    assert outcome(load_morse_json, dump_morse_json(f), k) == outcome(canonicalize, k, f)


@PROPERTY
@given(complexes(), st.randoms(use_true_random=False))
def test_acyclic_matching_round_trip_matches_the_oracle(k, rng):
    pairs = random_collapse_matching(k, rng)
    f = dmf_from_matching(k, pairs)
    assert f.values == assign_values_oracle(k, dict(pairs)).values
    assert canonicalize(k, f).values == canonicalize_oracle(k, f).values
    assert validate(k, f).is_canonical


@PROPERTY
@given(complexes(), st.randoms(use_true_random=False))
def test_arbitrary_matching_is_accepted_or_rejected_like_the_oracle(k, rng):
    pairs = random_matching(k, rng)
    assert outcome(dmf_from_matching, k, pairs) == outcome(assign_values_oracle, k, dict(pairs))


@pytest.mark.parametrize(
    "builder",
    [lambda: simplex_complex(2), lambda: simplex_complex(3), cone_over_circle],
    ids=["triangle", "tetrahedron", "cone"],
)
def test_greedy_keeps_a_ridge_freed_before_its_coface_is_maximal(builder):
    # Collapsing (θ, τ) removes θ before τ, so a ridge of θ drops to one
    # remaining coface while that coface still lies under τ; it is free only
    # once τ is gone, and must still be a candidate then.  The first
    # collapse on each of these complexes does this.
    k = builder()
    assert greedy_collapse_dmf(k).values == greedy_oracle(k).values
