"""Face queries of complexes against a brute-force enumeration.

A complex stores only its facets and derives its face set on first use.
Each query is compared with the candidate vertex subsets of the complex
(``itertools.combinations`` of its vertex set) that lie in some facet.
"""
from itertools import combinations

import pytest

from morseshell.catalog import boundary_sphere, cone_over_circle, moebius_torus, two_triangles
from morseshell.complexes import (
    EMPTY,
    RelativeComplex,
    Simplex,
    SimplicialComplex,
    barycentric,
    barycentric_complex,
    closure_complex,
    make_complex,
)

BASES = {
    "torus": moebius_torus,
    "sphere3": lambda: boundary_sphere(3),
    "cone": cone_over_circle,
    "two-triangles": two_triangles,
    # facets of three sizes: a triangle, a dangling edge, an isolated vertex
    "mixed": lambda: make_complex([["a", "b", "c"], ["c", "d"], ["e"]]),
}
# at depth 2 the labels nest two deep
CASES = [(name, 0) for name in BASES] + [(name, 1) for name in BASES] + [("cone", 2), ("two-triangles", 2)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-sd{c[1]}")
def complex_and_brute(request):
    name, depth = request.param
    k = BASES[name]()
    for _ in range(depth):
        k = barycentric_complex(k)
    return k, _brute(k)


def _brute(k: SimplicialComplex):
    """Every vertex subset up to facet size, split into faces and non-faces."""
    facet_sets = [frozenset(f.vertices) for f in k.facets]
    faces, others = [], []
    for r in range(k.dim + 2):
        for c in combinations(k.vertices(), r):
            s = Simplex(c)
            (faces if any(frozenset(c) <= f for f in facet_sets) else others).append(s)
    return faces, others


def test_faces_and_membership(complex_and_brute):
    k, (faces, others) = complex_and_brute
    assert k.faces() == frozenset(faces)
    assert all(s in k for s in faces)
    assert not any(s in k for s in others)


def test_iteration_order_is_by_key(complex_and_brute):
    k, (faces, _) = complex_and_brute
    assert list(k) == sorted(faces, key=lambda s: (len(s), [v.key for v in s]))


def test_f_vector_and_euler(complex_and_brute):
    k, (faces, _) = complex_and_brute
    counts = [sum(1 for s in faces if s.dim == d) for d in range(k.dim + 1)]
    assert k.f_vector() == tuple(counts)
    assert k.euler() == sum((-1) ** d * n for d, n in enumerate(counts))


def test_facets_containing_follows_facet_order(complex_and_brute):
    k, (faces, others) = complex_and_brute
    facet_sets = [(f, frozenset(f.vertices)) for f in k.facets]
    for s in faces:
        expected = tuple(f for f, vs in facet_sets if vs.issuperset(s.vertices))
        assert k.facets_containing(s) == expected
    assert not any(k.facets_containing(s) for s in others)
    assert k.facets_containing(EMPTY) == k.facets


@pytest.mark.parametrize("depth", [0, 1])
def test_relative_faces_against_brute_force(depth):
    s = RelativeComplex(closure_complex(Simplex("abcd")), make_complex([["a", "b", "c"], ["d"]]))
    for _ in range(depth):
        s = barycentric(s)
    ambient, _ = _brute(s.ambient)
    missing, _ = _brute(s.missing)
    expected = frozenset(ambient) - frozenset(missing)
    assert s.faces() == expected
    assert not s.has_empty_face and EMPTY not in expected
    assert s.euler() == sum((-1) ** f.dim for f in expected if not f.is_empty)
    absolute = RelativeComplex(s.ambient)
    assert absolute.has_empty_face and absolute.faces() == frozenset(ambient)
    assert absolute.euler() == s.ambient.euler() == sum((-1) ** f.dim for f in ambient if not f.is_empty)


def _forbid_faces(monkeypatch):
    def forbidden(self):
        raise AssertionError("faces enumerated at construction")

    monkeypatch.setattr(Simplex, "faces", forbidden)
    monkeypatch.setattr(SimplicialComplex, "faces", forbidden)
    monkeypatch.setattr(RelativeComplex, "faces", forbidden)


def test_construction_enumerates_no_faces(monkeypatch):
    k = moebius_torus()
    _forbid_faces(monkeypatch)
    sd2 = barycentric(barycentric(RelativeComplex(k)))
    assert len(sd2.ambient.facets) == 14 * 36
    assert sd2 == barycentric(barycentric(RelativeComplex(k)))


def test_relative_construction_derives_no_face_set(monkeypatch):
    """Shared facets are deleted and the subcomplex test made against facets
    alone, also when the missing part is not void."""
    ambient = make_complex([["a", "b", "c"], ["b", "c", "d"], ["d", "e"]])
    missing = make_complex([["b", "c", "d"], ["a", "b"], ["e"]])
    _forbid_faces(monkeypatch)
    s = RelativeComplex(ambient, missing)
    # bcd goes, then its rim edges bd and cd, facets of K lying in L
    assert s.ambient == make_complex([["a", "b", "c"], ["d", "e"]])
    assert s.missing == make_complex([["a", "b"], ["b", "c"], ["d"], ["e"]])
    sd = barycentric(s)
    assert not sd.is_absolute and sd == barycentric(s)
    for part in (s.ambient, s.missing, sd.ambient, sd.missing):
        assert part._faces is None
    with pytest.raises(ValueError, match="subcomplex"):
        RelativeComplex(ambient, make_complex([["a", "d"]]))
    with pytest.raises(ValueError, match="subcomplex"):
        RelativeComplex(ambient, make_complex([["x"]]))


def test_absolute_faces_are_the_ambient_face_set():
    s = barycentric(RelativeComplex(moebius_torus()))
    assert s.faces() is s.ambient.faces()
