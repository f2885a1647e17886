"""Certificates of the face-key verifier.

The verifier in ``morseshell.verify`` keys faces by vertex tuples and
re-derives tile shapes by a rule of its own.  Here it is held against the
reference verifier in ``oracles`` on honest and mutated tilings, its
failures are checked to be deterministic, and the ``verify`` command is
checked to reject each kind of broken tiling by naming the tile.
"""
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from oracles import all_tiles_on, basic_tiles_on, critical_census_oracle, verify_tiling_oracle

import morseshell.cli as cli
import morseshell.verify as verify
from morseshell.catalog import boundary_sphere, cone_over_circle, moebius_torus, two_triangles
from morseshell.cli import run
from morseshell.complexes import EMPTY, RelativeComplex, Simplex, make_complex
from morseshell.engine import Tiling, shell_sd2_from_dmf, shell_sd_join
from morseshell.morse import greedy_collapse_dmf, trivial_dmf
from morseshell.serial import dump_complex_text, simplex_from_json, tiling_to_lines
from morseshell.tiles import MorseTile
from morseshell.verify import critical_census, verify_tiling

SRC = Path(__file__).resolve().parent.parent / "src"


# -- agreement with the reference verifier -------------------------------------


def _join_pairs():
    """The criterion-3 pairs: basic T on Δᵃ, Morse T′ on Δᵇ, a + b ≤ 3."""
    for da in range(4):
        left = Simplex("wxyz"[: da + 1])
        for db in range(4 - da):
            right = Simplex("pqrs"[: db + 1])
            for t in basic_tiles_on(left):
                for tp in all_tiles_on(right):
                    yield t, tp


def _mutations(tiling):
    """The tiling itself and up to nine broken variants of it."""
    tiles = list(tiling.tiles)
    k = len(tiles) // 2

    def variant(change):
        changed = list(tiles)
        change(changed)
        return Tiling(tiling.space, tuple(changed))

    def flip(ts):
        t = ts[k]
        ridges = set(t.missing_ridges) ^ {t.underlying.ridges()[0]}
        ts[k] = MorseTile(t.underlying, frozenset(ridges), t.morse_face, t.anchor)

    def swap(ts):
        ts[0], ts[1] = ts[1], ts[0]

    def drop(ts):
        del ts[k]

    def drop_last(ts):
        # no later tile is left with a gap: only the freed facet's top face
        # is unowned
        del ts[-1]

    def duplicate(ts):
        ts.insert(k + 1, ts[k])

    def claim(ts):
        ts[-1] = MorseTile(ts[-1].underlying, frozenset())

    def foreign(ts):
        ts.append(MorseTile(Simplex(["f1", "f2", "f3"]), frozenset()))

    out = {"honest": tiling, "flip": variant(flip), "drop": variant(drop),
           "drop_last": variant(drop_last), "duplicate": variant(duplicate),
           "claim": variant(claim), "foreign": variant(foreign)}
    if len(tiles) > 1:
        out["swap"] = variant(swap)
    closed = [i for i, t in enumerate(tiles) if t.is_closed and t.dim >= 2]
    if closed:
        i = closed[0]

        def incomparable(ts):
            t = ts[i]
            a, b = t.underlying.vertices[:2]
            ts[i] = MorseTile(t.underlying, t.missing_ridges | {Simplex([a]), Simplex([b])})

        out["incomparable"] = variant(incomparable)
    morse = [i for i, t in enumerate(tiles) if not t.is_basic and t.dim >= 2]
    if morse:
        j = morse[0]

        def nonridge(ts):
            # a vertex among the missing ridges: the restriction-set rule
            # cannot read the tile, and both censuses count it as regular
            t = ts[j]
            vertex = Simplex(t.underlying.vertices[:1])
            ts[j] = MorseTile(t.underlying, t.missing_ridges | {vertex}, t.morse_face, t.anchor)

        out["nonridge"] = variant(nonridge)
    return out


def _summary(cert):
    return (
        cert.partition_ok, cert.shelling_ok, cert.tiles_ok, cert.euler_ok,
        cert.morse_inequalities_ok, cert.strong_ok, cert.census, Counter(cert.failures),
    )


def _sd2(k, f):
    tiling, _ = shell_sd2_from_dmf(k, f(k))
    return tiling


def _edge_and_point(*tiles):
    """A depth-0 tiling of K = {ab, c}."""
    return Tiling(RelativeComplex(make_complex([["a", "b"], ["c"]])), tiles)


# c minus ∅, its one ridge missing
OPEN_C = MorseTile(Simplex("c"), frozenset({EMPTY}))
# a shelling, but not a strong one: the vertices of the edge tile have the
# ridge ∅, which the 0-dimensional tile owns
NOT_STRONG = _edge_and_point(MorseTile(Simplex("c"), frozenset()), MorseTile(Simplex("ab"), frozenset(), EMPTY))

AGREEMENT_CASES = [
    (f"join-{i}", lambda p=p: shell_sd_join(*p)[0])
    for i, p in sorted(Random(8).sample(list(enumerate(_join_pairs())), 24), key=lambda c: c[0])
] + [
    ("circle-trivial", lambda: _sd2(boundary_sphere(1), trivial_dmf)),
    ("cone-greedy", lambda: _sd2(cone_over_circle(), greedy_collapse_dmf)),
    ("sphere-trivial", lambda: _sd2(boundary_sphere(2), trivial_dmf)),
    ("two-triangles-greedy", lambda: _sd2(two_triangles(), greedy_collapse_dmf)),
    ("edge-and-point-trivial", lambda: _sd2(make_complex([["a", "b"], ["c"]]), trivial_dmf)),
    ("edge-and-point-not-strong", lambda: NOT_STRONG),
    ("edge-and-point-strong", lambda: _edge_and_point(MorseTile(Simplex("ab"), frozenset()), OPEN_C)),
]


@pytest.mark.parametrize("case, build", AGREEMENT_CASES, ids=[c[0] for c in AGREEMENT_CASES])
def test_certificates_agree_with_the_reference_verifier(case, build):
    tiling = build()
    for name, mutated in _mutations(tiling).items():
        got = verify_tiling(tiling.space, mutated, strong=True)
        want = verify_tiling_oracle(tiling.space, mutated, strong=True)
        assert _summary(got) == _summary(want), name
        assert got.ok == (name == "honest" and case != "edge-and-point-not-strong"), name
        assert critical_census(mutated) == critical_census_oracle(mutated), name


def test_a_failed_strong_condition_names_the_dimension():
    cert = verify_tiling(NOT_STRONG.space, NOT_STRONG, strong=True)
    assert not cert.ok and cert.strong_ok is False
    assert cert.failures == [(None, "tiles of dimension above 0 do not form a subcomplex", None)]
    assert verify_tiling(NOT_STRONG.space, NOT_STRONG).ok


def test_a_generator_off_the_tile_is_not_a_morse_tile():
    tiling = _edge_and_point(MorseTile(Simplex("ab"), frozenset({Simplex("ac")})), OPEN_C)
    cert = verify_tiling(tiling.space, tiling)
    assert not cert.tiles_ok
    assert (0, "not a Morse tile: {a c} is not a proper face of {a b}", Simplex("ab")) in cert.failures


def test_an_honest_tiling_is_certified_without_the_space_face_set(monkeypatch):
    """Coverage follows from the shelling check, so the faces of the
    space's ambient facets are never enumerated on an honest tiling checked
    against the homology of K."""
    k = two_triangles()
    tiling = _sd2(k, greedy_collapse_dmf)
    on_k = RelativeComplex(k)
    seen = []
    original = verify._face_keys

    def recording(keys):
        keys = tuple(keys)
        seen.append(keys)
        return original(keys)

    monkeypatch.setattr(verify, "_face_keys", recording)
    assert verify_tiling(tiling.space, tiling, strong=True, homology_of=on_k).ok
    assert seen and tiling.space.ambient.facet_keys not in seen
    mutated = _mutations(tiling)["drop_last"]
    assert not verify_tiling(tiling.space, mutated, homology_of=on_k).ok
    assert tiling.space.ambient.facet_keys in seen


# -- the verify command on broken tilings ---------------------------------------------


@pytest.fixture
def sphere_run(tmp_path):
    """The 2-sphere and its sd² tiling under the trivial function, which
    has tiles with non-empty Morse faces, as files."""
    source = tmp_path / "sphere.txt"
    source.write_text(dump_complex_text(RelativeComplex(boundary_sphere(2))))
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(source), "--morse", "trivial", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    return source, [json.loads(line) for line in lines[:-1]], lines[-1]


def _verify_records(tmp_path, source, records, summary):
    path = tmp_path / "tiling.jsonl"
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records] + [summary]
    path.write_text("\n".join(lines) + "\n")
    cert_path = tmp_path / "cert.json"
    code = run(["verify", str(source), "--tiling", str(path), "-o", str(cert_path)])
    return code, cert_path.read_bytes()


def _named(cert, reason_start):
    return {f["tile"] for f in json.loads(cert)["failures"] if f["reason"].startswith(reason_start)}


def _resummed(records, summary, **fields):
    """The summary record with the given fields set and the checksum of the
    records' lines as ``_verify_records`` writes them."""
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    data = json.loads(summary)
    data["summary"].update(fields, checksum=f"sha256:{digest}")
    return json.dumps(data)


def test_verify_checks_the_classes_and_regular_count_a_file_records(sphere_run, tmp_path):
    """The tiles certify and the checksum matches, yet swapped classes or
    a wrong regular count fail with exit code 2, the lines named, and the
    certificate reads not ok."""
    source, records, summary = sphere_run
    assert _verify_records(tmp_path, source, records, _resummed(records, summary))[0] == 0
    i = next(p for p, r in enumerate(records) if r["class"] != "regular")
    j = next(p for p, r in enumerate(records) if r["class"] == "regular")
    swapped = [dict(r) for r in records]
    swapped[i]["class"], swapped[j]["class"] = records[j]["class"], records[i]["class"]
    code, cert = _verify_records(tmp_path, source, swapped, _resummed(swapped, summary))
    index = records[i]["class"]["critical"]
    assert code == 2 and json.loads(cert)["ok"] is False
    assert {f["tile"]: f["reason"] for f in json.loads(cert)["failures"]} == {
        i: f"recorded class regular != recomputed critical {index}",
        j: f"recorded class critical {index} != recomputed regular",
    }
    regular = json.loads(summary)["summary"]["regular"]
    code, cert = _verify_records(tmp_path, source, records, _resummed(records, summary, regular=regular + 1))
    assert code == 2 and json.loads(cert)["failures"] == [
        {"tile": None, "reason": f"recorded regular {regular + 1} != recomputed {regular}", "witness": None}
    ]


def test_a_file_written_with_an_unanchored_tile_records_the_census_verify_recomputes(tmp_path):
    """``critical_census`` counts a tile anchored at no facet of the space
    as regular, as the verifier does: the classes and summary census
    written for the ``foreign`` variant (a closed triangle off the space)
    are the ones ``verify`` recomputes, so only the foreign tile fails:
    it is not anchored, and its faces are owned by no tile."""
    k = cone_over_circle()
    foreign = _mutations(_sd2(k, greedy_collapse_dmf))["foreign"]
    census = critical_census(foreign)
    assert census.indices[-1] is None
    source = tmp_path / "k.txt"
    source.write_text(dump_complex_text(RelativeComplex(k)))
    path = tmp_path / "foreign.jsonl"
    path.write_text("\n".join(tiling_to_lines(foreign, 2, census)) + "\n")
    cert_path = tmp_path / "cert.json"
    assert run(["verify", str(source), "--tiling", str(path), "-o", str(cert_path)]) == 2
    cert = json.loads(cert_path.read_text())
    last = len(census.indices) - 1
    assert {(f["tile"], f["reason"]) for f in cert["failures"]} == {
        (last, "tile not anchored at an ambient facet"),
        (last, "closure face owned later or never"),
    }
    assert cert["census"] == {str(i): n for i, n in census.critical.items()}
    assert cert["regular"] == census.regular


def test_verify_names_a_tile_with_a_flipped_ridge(sphere_run, tmp_path):
    source, records, summary = sphere_run
    k = next(i for i, r in enumerate(records) if i > len(records) // 2 and r["ridges"])
    records[k]["ridges"] = records[k]["ridges"][1:]
    code, cert = _verify_records(tmp_path, source, records, summary)
    assert code == 2 and not json.loads(cert)["partition_ok"]
    assert _named(cert, "face also owned by tile") == {k}


def test_verify_names_a_tile_swapped_before_its_dependency(sphere_run, tmp_path):
    source, records, summary = sphere_run
    j = next(i for i, r in enumerate(records) if r["ridges"] or r["morse_face"] is not None)
    records[0], records[j] = records[j], records[0]
    code, cert = _verify_records(tmp_path, source, records, summary)
    assert code == 2 and not json.loads(cert)["shelling_ok"]
    assert 0 in _named(cert, "closure face owned later or never")


def test_verify_names_the_tiles_left_open_by_a_dropped_tile(sphere_run, tmp_path):
    source, records, summary = sphere_run
    dropped = simplex_from_json(records.pop(0)["facet"])
    code, cert = _verify_records(tmp_path, source, records, summary)
    cert = json.loads(cert)
    assert code == 2 and not cert["partition_ok"] and not cert["shelling_ok"]
    later = [f for f in cert["failures"] if f["reason"] == "closure face owned later or never"]
    assert later and all(f["tile"] is not None for f in later)
    assert all(simplex_from_json(f["witness"]) <= dropped for f in later)
    uncovered = [f for f in cert["failures"] if f["reason"] == "face not covered by any tile"]
    assert any(simplex_from_json(f["witness"]) == dropped for f in uncovered)


def test_verify_names_a_tile_claiming_a_face_another_owns(sphere_run, tmp_path):
    source, records, summary = sphere_run
    k = next(i for i, r in enumerate(records) if r["morse_face"] not in (None, "empty"))
    records[k]["morse_face"] = None
    code, cert = _verify_records(tmp_path, source, records, summary)
    assert code == 2 and not json.loads(cert)["partition_ok"]
    assert _named(cert, "face also owned by tile") == {k}


def test_verify_strong_names_a_failed_strong_condition(tmp_path):
    source = tmp_path / "k.txt"
    source.write_text(dump_complex_text(NOT_STRONG.space))
    path = tmp_path / "tiling.jsonl"
    path.write_text("\n".join(tiling_to_lines(NOT_STRONG, 0, critical_census(NOT_STRONG))) + "\n")
    cert_path = tmp_path / "cert.json"
    assert run(["verify", str(source), "--tiling", str(path), "-o", str(cert_path)]) == 0
    assert run(["verify", str(source), "--tiling", str(path), "--strong", "-o", str(cert_path)]) == 2
    cert = json.loads(cert_path.read_text())
    assert cert["strong_ok"] is False and len(cert["failures"]) == 1


# -- determinism and the homology check of the verify command ---------------------------


def test_verify_certificates_are_byte_identical_across_processes(tmp_path):
    source = tmp_path / "torus.txt"
    source.write_text(dump_complex_text(RelativeComplex(moebius_torus())))
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(source), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    k = len(lines) // 2
    record = json.loads(lines[k])
    assert record["ridges"]
    record["ridges"] = []
    lines[k] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-m", "morseshell", "verify", str(source), "--tiling", str(bad)]
    first, second = (subprocess.run(command, capture_output=True, env=env, timeout=120) for _ in range(2))
    assert first.returncode == second.returncode == 2
    assert first.stdout == second.stdout

    witnesses = {}
    for failure in json.loads(first.stdout)["failures"]:
        if failure["witness"] is not None:
            witnesses.setdefault(failure["tile"], []).append(simplex_from_json(failure["witness"]).key)
    assert len(witnesses[k]) > 1
    for keys in witnesses.values():
        assert keys == sorted(keys)


def test_verify_command_checks_homology_on_the_loaded_complex(sphere_run, tmp_path, monkeypatch):
    """Betti numbers come from K, not sd²(K), and the certificate bytes are
    those of a check against sd²(K)."""
    source, records, summary = sphere_run
    k = boundary_sphere(2)
    seen = []
    original = verify.mod2_betti

    def recording(space):
        seen.append(space)
        return original(space)

    def against_the_tiled_space(s, t, strong=False, homology_of=None):
        return verify_tiling(s, t, strong=strong)

    monkeypatch.setattr(verify, "mod2_betti", recording)
    for variant in (records, records[1:]):
        seen.clear()
        code, on_k = _verify_records(tmp_path, source, variant, summary)
        assert seen == [k]
        with monkeypatch.context() as m:
            m.setattr(cli, "verify_tiling", against_the_tiled_space)
            seen.clear()
            assert _verify_records(tmp_path, source, variant, summary) == (code, on_k)
            assert len(seen) == 1 and len(seen[0].facets) == len(records)
