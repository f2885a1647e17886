import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell import cli, verify
from morseshell.cli import run
from morseshell.engine import Tiling
from morseshell.serial import dump_complex_json, dump_complex_text, load_complex_json
from morseshell.catalog import moebius_torus
from morseshell.complexes import RelativeComplex
from morseshell.tiles import MorseTile


SRC = Path(__file__).resolve().parent.parent / "src"


def _line(data) -> str:
    """A tiling-file record in the writer's spelling: keys sorted, no
    spaces."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.txt"
    path.write_text(dump_complex_text(RelativeComplex(moebius_torus())))
    return path


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.txt"
    path.write_text("a b\nb c\na c\n")
    return path


def test_info_on_torus(torus_file, tmp_path, capsys):
    out = tmp_path / "info.json"
    assert run(["info", str(torus_file), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["euler"] == 0
    assert data["mod2_betti"] == [1, 2, 1]
    assert data["f_vector"] == [7, 21, 14]


def test_sd_round_trip_is_bit_exact(circle_file, tmp_path):
    once = tmp_path / "sd1.json"
    assert run(["sd", str(circle_file), "--depth", "1", "-o", str(once)]) == 0
    again = tmp_path / "sd1b.json"
    assert run(["sd", str(once), "--depth", "0", "-o", str(again)]) == 0
    assert once.read_bytes() == again.read_bytes()


def test_morse_trivial_and_load(circle_file, tmp_path):
    fpath = tmp_path / "f.json"
    assert run(["morse", str(circle_file), "trivial", "-o", str(fpath)]) == 0
    reloaded = tmp_path / "f2.json"
    assert run(["morse", str(circle_file), "load", "--function", str(fpath), "-o", str(reloaded)]) == 0
    assert fpath.read_bytes() == reloaded.read_bytes()


def test_morse_load_requires_function(circle_file):
    assert run(["morse", str(circle_file), "load"]) == 1


def test_shell_sd2_with_an_empty_morse_option_names_it(circle_file, capsys):
    assert run(["shell-sd2", str(circle_file), "--morse", "", "-o", "/dev/null"]) == 1
    assert capsys.readouterr().err == "error: --morse needs 'trivial', 'greedy' or a Morse file\n"


@pytest.mark.parametrize(
    "key, error",
    [
        ("", "error: function has a value on the empty face {}\n"),
        ("a d", "error: function has a value on {a d}, which is not a face of the complex\n"),
    ],
    ids=["empty-face", "non-face"],
)
def test_morse_load_rejects_a_value_off_the_complex(circle_file, tmp_path, capsys, key, error):
    fpath = tmp_path / "f.json"
    assert run(["morse", str(circle_file), "trivial", "-o", str(fpath)]) == 0
    data = json.loads(fpath.read_text())
    data["values"][key] = "7/1"
    fpath.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["morse", str(circle_file), "load", "--function", str(fpath), "-o", "/dev/null"]) == 1
    assert capsys.readouterr().err == error


def test_shell_sd_pipeline(circle_file, tmp_path):
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd", str(circle_file), "--vertex", "a", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["depth"] == 1 and summary["tiles"] == 6
    cert = tmp_path / "cert.json"
    assert run(["verify", str(circle_file), "--tiling", str(out), "-o", str(cert)]) == 0
    assert json.loads(cert.read_text())["ok"] is True


def test_shell_sd_checks_homology_against_the_input_complex(torus_file, monkeypatch):
    """Euler and Betti numbers are subdivision invariants, so ``shell-sd``
    reads them off K, not off sd(K)."""
    seen = []
    original = verify.mod2_betti

    def recording(k):
        seen.append(k)
        return original(k)

    monkeypatch.setattr(verify, "mod2_betti", recording)
    assert run(["shell-sd", str(torus_file), "--vertex", "t0", "-o", "/dev/null"]) == 0
    assert seen == [moebius_torus()]


def test_verify_of_a_wide_unanchored_tile_exits_two_without_deriving_its_shape(tmp_path):
    """A closed tile line on 40 fresh atoms sits on no facet of the space;
    its shape would take 2^40 masks, so it must not be derived.  Run in a
    child process under a 1 GiB address-space limit and a timeout, so a
    verifier that enumerates the masks fails instead of exhausting memory."""
    kpath, tpath, cpath = tmp_path / "tri.txt", tmp_path / "t.jsonl", tmp_path / "cert.json"
    kpath.write_text("a b c\n")
    tiles = [{"class": "regular", "facet": [f"x{i:02}" for i in range(40)], "morse_face": None, "ridges": []}]
    line = _line(tiles[0])
    checksum = "sha256:" + hashlib.sha256((line + "\n").encode()).hexdigest()
    summary = {"census": {}, "checksum": checksum, "depth": 0, "regular": 1, "tiles": 1}
    tpath.write_text(line + "\n" + _line({"summary": summary}) + "\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    limit = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "morseshell", "verify", str(kpath), "--tiling", str(tpath), "-o", str(cpath)],
        env=env,
        timeout=60,
        capture_output=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 2, done.stderr
    cert = json.loads(cpath.read_text())
    assert cert["ok"] is False and cert["partition_ok"] is False
    assert {"tile": 0, "reason": "tile not anchored at an ambient facet", "witness": tiles[0]["facet"]} in cert["failures"]
    assert cert["regular"] == 1 and cert["census"] == {}
    assert not any(f["reason"].startswith(("recorded", "tile lines")) for f in cert["failures"])


IMPORT_PROBE = """
import json, sys
from functools import _lru_cache_wrapper
before = set(sys.modules)
import morseshell.cli
from morseshell import complexes, engine, labels, verify
caches = {f"{mod.__name__}.{name}": fn.cache_info().currsize
          for mod in (complexes, engine, verify)
          for name, fn in vars(mod).items() if isinstance(fn, _lru_cache_wrapper)}
print(json.dumps({
    "labels": [len(labels._DEFAULT._atoms), len(labels._DEFAULT._barys)],
    "caches": caches,
    "foreign": sorted(m for m in set(sys.modules) - before
                      if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "morseshell"),
}))
"""


def test_importing_the_cli_does_no_work():
    """A fresh interpreter that imports ``morseshell.cli`` has interned no
    label, filled no ``lru_cache`` of ``complexes``, ``engine`` or
    ``verify``, and imported nothing beyond the standard library and the
    package: a start-up cost would show in every one-shot CLI run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, timeout=60, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["labels"] == [0, 0]
    assert probe["caches"] and set(probe["caches"].values()) == {0}, probe["caches"]
    assert probe["foreign"] == []


def test_shell_sd2_pipeline_and_verify(circle_file, tmp_path):
    out = tmp_path / "t2.jsonl"
    assert run(["shell-sd2", str(circle_file), "--morse", "trivial", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["census"] == {"0": 3, "1": 3}
    assert summary["tiles"] == 12
    assert run(["verify", str(circle_file), "--tiling", str(out), "-o", "/dev/null"]) == 0


def test_shell_sd2_rejects_a_relative_complex(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text('{"facets": [["a", "b", "c"]], "missing": [["a", "b"]]}')
    assert run(["shell-sd2", str(path), "-o", "/dev/null"]) == 1
    assert "shell-sd2 expects an absolute complex" in capsys.readouterr().err


# A function of Forman's on the closed triangle that pairs (c, ac) and
# (bc, abc) and leaves a, b and ab critical.  The face c has a coface of
# codimension two, abc, valued not above it, which is allowed.
FORMAN_TRIANGLE = {"values": {"a": 0, "b": 0, "c": 2, "a b": 1, "a c": 1, "b c": 3, "a b c": 2}}


def test_a_function_of_formans_loads_and_shells(tmp_path):
    kpath, fpath = tmp_path / "tri.txt", tmp_path / "f.json"
    kpath.write_text("a b c\n")
    fpath.write_text(json.dumps(FORMAN_TRIANGLE))
    assert run(["morse", str(kpath), "load", "--function", str(fpath), "-o", "/dev/null"]) == 0
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(kpath), "--morse", str(fpath), "-o", str(out)]) == 0
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["tiles"] == 36
    assert summary["census"] == {"0": 2, "1": 1}


def test_shell_sd2_with_morse_file(circle_file, tmp_path):
    fpath = tmp_path / "f.json"
    assert run(["morse", str(circle_file), "greedy", "-o", str(fpath)]) == 0
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(circle_file), "--morse", str(fpath), "-o", str(out)]) == 0
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["census"] == {"0": 1, "1": 1}


def test_verify_rejects_corrupted_tiling(circle_file, tmp_path):
    out = tmp_path / "t.jsonl"
    run(["shell-sd2", str(circle_file), "-o", str(out)])
    lines = out.read_text().splitlines()
    # census tampering in the summary record
    summary = json.loads(lines[-1])
    summary["summary"]["census"] = {"0": 99}
    lines[-1] = _line(summary)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(circle_file), "--tiling", str(bad), "-o", "/dev/null"]) == 2


def test_verify_rejects_reordered_tiles(circle_file, tmp_path):
    out = tmp_path / "t.jsonl"
    run(["shell-sd2", str(circle_file), "-o", str(out)])
    lines = out.read_text().splitlines()
    lines[0], lines[-2] = lines[-2], lines[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(circle_file), "--tiling", str(bad), "-o", "/dev/null"]) == 2


def test_identical_invocations_are_byte_identical(circle_file, tmp_path):
    one = tmp_path / "a.jsonl"
    two = tmp_path / "b.jsonl"
    run(["shell-sd2", str(circle_file), "--morse", "greedy", "-o", str(one)])
    run(["shell-sd2", str(circle_file), "--morse", "greedy", "-o", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# only comments\n")
    assert run(["info", str(bad)]) == 1


def test_missing_file_exits_one():
    assert run(["info", "/nonexistent/path.txt"]) == 1


def test_text_facet_with_a_repeated_vertex_exits_one(tmp_path, capsys):
    path = tmp_path / "repeat.txt"
    path.write_text("a b c\na a b\n")
    assert run(["info", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot parse complex {path}: facet 'a a b' repeats a vertex\n"
    )


@pytest.mark.parametrize("part", ["facets", "missing"])
def test_json_facet_with_a_repeated_vertex_exits_one(tmp_path, capsys, part):
    data = {"facets": [["a", "b", "c"]], "missing": [["a", "b"]]}
    data[part] = [["a", "a", "b"]] + data[part]
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(data))
    assert run(["info", str(path)]) == 1
    assert capsys.readouterr().err == (
        f'error: cannot parse complex {path}: facet ["a", "a", "b"] repeats a vertex\n'
    )


def nested(depth: int, inner: str = '"a"') -> str:
    """JSON text of ``inner`` wrapped in ``depth`` arrays."""
    return "[" * depth + inner + "]" * depth


MALFORMED_COMPLEX = [
    ('{"facets": 5}', 'complex JSON needs a "facets" array'),
    ('{"facets": [["a", "b"]], "missing": 5}', 'complex JSON "missing" must be an array of facets'),
    ('{"facets": [[]]}', "facets must be non-empty"),
    ('{"facets": []}', "no facets in input"),
    # past the recursion limit in the label decoding, then in json.loads itself
    ('{"facets": [[%s, "b"]]}' % nested(300), "complex JSON is nested too deeply"),
    ('{"facets": [[%s, "b"]]}' % nested(100_000), "complex JSON is nested too deeply"),
    # L ⊄ K, even where L holds K's facet
    ('{"facets": [["a", "b"]], "missing": [["a", "b"], ["c"]]}',
     "missing part must be a subcomplex of the ambient complex"),
    # a name the text format and Morse files would split in two
    ('{"facets": [["x y", "z"], ["z", "w"]]}', "atom name 'x y' holds whitespace"),
]


@pytest.mark.parametrize("command", ["info", "shell-sd2"])
@pytest.mark.parametrize(
    "content, fragment", MALFORMED_COMPLEX,
    ids=[
        "facets-number", "missing-number", "empty-facet", "no-facets", "deep-label", "deep-json",
        "missing-not-a-subcomplex", "whitespace-name",
    ],
)
def test_malformed_json_complex_exits_one(tmp_path, capsys, command, content, fragment):
    path = tmp_path / "k.json"
    path.write_text(content)
    assert run([command, str(path), "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse complex {path}: ") and err.count("\n") == 1
    assert fragment in err


def test_info_on_a_relative_complex(tmp_path):
    """The triangle minus its edge ab: L = {∅, a, b, ab} has 3 non-empty
    faces, and χ(K, L) = χ(K) − χ(L) = 1 − 1 = 0."""
    path = tmp_path / "k.json"
    path.write_text('{"facets": [["a", "b", "c"]], "missing": [["a", "b"]]}')
    out = tmp_path / "info.json"
    assert run(["info", str(path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["missing_faces"] == 3
    assert data["relative_euler"] == 0


def test_json_complex_missing_only_the_empty_face_loads(tmp_path):
    """K \\ {∅}, whose "missing" is [[]], stays a valid input, and
    ``dump_complex_json`` writes it back the same way."""
    text = '{"facets":[["a","b"]],"missing":[[]]}\n'
    assert dump_complex_json(load_complex_json(text)) == text
    path = tmp_path / "k.json"
    path.write_text(text)
    out = tmp_path / "info.json"
    assert run(["info", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["missing_faces"] == 0


MALFORMED_MORSE = [
    ('"pairs"', 'Morse JSON needs "values" or "pairs"'),
    ('{"pairs": 5}', 'Morse "pairs" must be an array'),
    ('{"pairs": [["a"]]}', 'Morse pair ["a"] is not'),
    ('{"values": []}', 'Morse "values" must be an object'),
    ('{"values": {"a": null}}', "Morse value null on 'a'"),
    ('{"values": {"a": true}}', "Morse value true on 'a'"),
    ('{"pairs": [["", "a"]]}', "({}, {a}) is not a pair of non-empty faces of the complex"),
    ('{"pairs": [[[], ["a"]]]}', "({}, {a}) is not a pair of non-empty faces of the complex"),
    ('{"values": {"a a": 0}}', 'Morse face "a a" repeats a vertex'),
    ('{"pairs": [[["b", "b"], ["a", "b"]]]}', 'Morse face ["b", "b"] repeats a vertex'),
    ('{"values": {"a b": 0, "b a": 1}}', 'Morse face "b a" names a face that already has a value'),
    ('{"values": {"a": 0, "a a": 1}}', 'Morse face "a a" repeats a vertex'),
    ('{"values": {"a": 7, "b": 1, "a": 0}}', 'Morse JSON repeats the key "a"'),
    ('{"pairs": %s}' % nested(100_000), "Morse JSON is nested too deeply"),
    ('{"pairs": [["a", "b c"]]}', "({a}, {b c}) is not a ridge/coface pair"),
    ('{"pairs": [["a", "a b"], ["b", "a b"]]}', "matching reuses a face"),
    ('{"values": {"a": "1/0"}}', """Morse value "1/0" on 'a' is not a finite number"""),
    ('{"values": {"a": 1e400}}', "Morse value Infinity on 'a' is not a finite number"),
]


@pytest.mark.parametrize("command", ["morse", "shell-sd2"])
@pytest.mark.parametrize(
    "content, fragment", MALFORMED_MORSE,
    ids=[
        "string", "pairs-number", "short-pair", "values-array", "null-value", "bool-value",
        "empty-face-string", "empty-face-array", "repeated-vertex-value", "repeated-vertex-pair",
        "same-face-twice", "face-and-repeat", "same-key-twice", "deep-json", "not-a-cover",
        "reused-face", "zero-denominator", "infinite-value",
    ],
)
def test_malformed_morse_file_exits_one(circle_file, tmp_path, capsys, command, content, fragment):
    fpath = tmp_path / "f.json"
    fpath.write_text(content)
    if command == "morse":
        argv = ["morse", str(circle_file), "load", "--function", str(fpath)]
    else:
        argv = ["shell-sd2", str(circle_file), "--morse", str(fpath)]
    assert run(argv + ["-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


# A filled triangle with a tail; its boundary edges and vertices carry
# the cyclic matching FRONT_DOOR_CYCLE.
FRONT_DOOR_COMPLEX = "a b c\nc d\n"
FRONT_DOOR_CYCLE = [("a", "a b"), ("b", "b c"), ("c", "a c")]
FRONT_DOOR_FACES = ["a", "b", "c", "d", "a b", "a c", "b c", "c d", "a b c"]
# every (ridge, coface) pair, the empty face as the ridge of a vertex included
FRONT_DOOR_PAIRS = [
    (r, t) for t in FRONT_DOOR_FACES for r in [""] + FRONT_DOOR_FACES
    if len(t.split()) == len(r.split()) + 1 and set(r.split()) < set(t.split())
]
# any name list up to length three: the empty face, repeats, "x" off the complex
any_face = st.lists(st.sampled_from(["a", "b", "c", "d", "x"]), max_size=3).map(" ".join)


@st.composite
def spelled(draw, face):
    """The face as a string or as an array, its names in any order."""
    names = draw(st.permutations(face.split()))
    return " ".join(names) if draw(st.booleans()) else names


@st.composite
def morse_files(draw):
    """A pairs file of pairs of the complex (or its cycle) plus at most one
    arbitrary pair, or a values file on all or most of the complex's faces
    plus at most one arbitrary key, with values 2·dim ± 1; names in any
    order."""
    if draw(st.booleans()):
        if draw(st.booleans()):
            pairs = list(FRONT_DOOR_CYCLE)
        else:
            pairs = draw(st.lists(st.sampled_from(FRONT_DOOR_PAIRS), unique=True, max_size=3))
        if draw(st.booleans()):
            pairs.append(draw(st.tuples(any_face, any_face)))
        return {"pairs": [[draw(spelled(r)), draw(spelled(t))] for r, t in pairs]}
    faces = draw(st.lists(st.sampled_from(FRONT_DOOR_FACES), unique=True, min_size=8))
    if draw(st.booleans()):
        faces.append(draw(any_face))
    values = {}
    for face in faces:
        key = " ".join(draw(st.permutations(face.split())))
        values[key] = 2 * len(face.split()) + draw(st.integers(-1, 1))
    return {"values": values}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(morse_files())
def test_morse_load_of_a_generated_file_exits_zero_or_names_one_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        kpath, fpath = Path(tmp) / "k.txt", Path(tmp) / "f.json"
        kpath.write_text(FRONT_DOOR_COMPLEX)
        fpath.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["morse", str(kpath), "load", "--function", str(fpath), "-o", "/dev/null"])
    assert rc in (0, 1)
    if rc == 1:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1


TILE = {"class": "regular", "facet": ["a", "b", "c"], "morse_face": None, "ridges": []}
SUMMARY = {"census": {}, "checksum": "sha256:0", "depth": 2, "regular": 0, "tiles": 0}


def _record(base: dict, **fields) -> str:
    """A tile line (``TILE``) or summary line (``SUMMARY``) with all the
    keys the writer writes, the given fields replaced or, given as
    ``...``, dropped."""
    data = {k: v for k, v in {**base, **fields}.items() if v is not ...}
    return _line({"summary": data} if base is SUMMARY else data)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("{}", 'tile record {} has no "facet"'),
        ("[1]", "tiling line '[1]' is not a JSON object"),
        ('"x"', "tiling line '\"x\"' is not a JSON object"),
        ('{"facet":["a"],"ridges":5}', '"ridges" that are not an array'),
        ('{"summary":5}', "summary 5 is not an object"),
        ('{"summary":{"depth":true}}', "summary depth true is not a non-negative integer"),
        ('{"summary":{"depth":-1}}', "summary depth -1 is not a non-negative integer"),
        (_record(SUMMARY, depth=3), "summary depth 3 is above 2, the deepest tiling morseshell writes"),
        ('{"facet":[%s]}' % nested(300), "tiling line 13 is nested too deeply"),
        ('{"facet":[%s]}' % nested(100_000), "tiling line 13 is nested too deeply"),
        ('{"facet":[["a"],["a"],["a","b"]]}', 'facet [["a"], ["a"], ["a", "b"]] repeats a vertex'),
        ('{"facet":["a","b"],"ridges":[["a","a"]]}', 'ridge ["a", "a"] repeats a vertex'),
        ('{"facet":["a","b","c"],"morse_face":["a","a"]}', 'Morse face ["a", "a"] repeats a vertex'),
        ('{"facet":["a"],"class":"banana"}', 'tiling line 13 has class "banana", not "regular" or'),
        ('{"summary":{"census":{"x":1}}}', 'summary census key "x" is not an integer'),
        ("", "tiling has no summary record"),
        (_record(TILE, **{"class": ...}), 'tiling line 13 has the keys ["facet", "morse_face", "ridges"], not ["class", "facet", "morse_face", "ridges"]'),
        (_record(TILE, facet=...), 'has no "facet"'),
        (_record(TILE, morse_face=...), 'tiling line 13 has the keys ["class", "facet", "ridges"], not'),
        (_record(TILE, ridges=...), 'tiling line 13 has the keys ["class", "facet", "morse_face"], not'),
        (_record(TILE, anchor=["a"]), 'tiling line 13 has the keys ["anchor", "class", "facet", "morse_face", "ridges"], not'),
        (_record(SUMMARY, census=...), 'the summary on tiling line 13 has the keys ["checksum", "depth", "regular", "tiles"], not'),
        (_record(SUMMARY, checksum=...), 'the summary on tiling line 13 has the keys ["census", "depth", "regular", "tiles"], not'),
        (_record(SUMMARY, depth=...), 'the summary on tiling line 13 has the keys ["census", "checksum", "regular", "tiles"], not'),
        (_record(SUMMARY, regular=...), 'the summary on tiling line 13 has the keys ["census", "checksum", "depth", "tiles"], not'),
        (_record(SUMMARY, tiles=...), 'the summary on tiling line 13 has the keys ["census", "checksum", "depth", "regular"], not'),
        (_record(TILE, ridges=[["a"]]), 'tiling line 13 is no row: ridge ["a"] is no ridge of its facet'),
        (_record(TILE, morse_face=["a", "b", "c"]), 'tiling line 13 is no row: Morse face ["a", "b", "c"] is no proper face'),
    ],
    ids=[
        "no-facet", "array", "string", "ridges-number", "summary-number", "bool-depth",
        "negative-depth", "deep-depth", "deep-label", "deep-json", "repeat-facet",
        "repeat-ridge", "repeat-morse-face", "class-banana", "census-key",
        "no-summary", "no-class", "no-facet-field", "no-morse-face", "no-ridges", "unknown-key",
        "no-census", "no-checksum", "no-depth", "no-regular", "no-tiles",
        "vertex-ridge", "facet-morse-face",
    ],
)
def test_malformed_tiling_line_exits_one(circle_file, tmp_path, capsys, line, fragment):
    """A malformed tile line goes before the file's summary, where the
    writer puts tile lines; a malformed summary replaces the file's own,
    since a second summary is an error itself, and an empty line drops
    it."""
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(circle_file), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    summary = lines.pop()
    if line and not line.startswith('{"summary"'):
        lines += [line, summary]
    elif line:
        lines.append(line)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", str(circle_file), "--tiling", str(bad), "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("spelling", ["ridge-twice", "reversed-facet", "default-spacing"])
def test_verify_reads_only_the_writers_spelling(tmp_path, capsys, spelling):
    """Three spellings of a tile line that decode to the row the writer
    wrote, each with the checksum recomputed: a ridge listed twice, the
    facet reversed, and json's default spacing.  The reader compares each
    tile line with the text the writer writes for its row, so each exits 1
    naming the line."""
    source, lines = _triangle_file(tmp_path)
    i = next(p for p, x in enumerate(lines[:-1]) if json.loads(x)["ridges"])
    tile = json.loads(lines[i])
    if spelling == "ridge-twice":
        tile["ridges"].append(tile["ridges"][0])
    elif spelling == "reversed-facet":
        tile["facet"].reverse()
    line = json.dumps(tile, sort_keys=True) if spelling == "default-spacing" else _line(tile)
    assert line != lines[i]
    tile_lines = lines[:i] + [line] + lines[i + 1:-1]
    summary = json.loads(lines[-1])
    summary["summary"]["checksum"] = "sha256:" + hashlib.sha256(("\n".join(tile_lines) + "\n").encode()).hexdigest()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(tile_lines + [_line(summary)]) + "\n")
    capsys.readouterr()
    assert run(["verify", str(source), "--tiling", str(bad), "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: tiling line {i + 1} is not spelled as the writer spells its tile")


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("census", {"0": True}, "summary census[0] true is not an integer"),
        ("tiles", 36.0, "summary tiles 36.0 is not an integer"),
        ("regular", True, "summary regular true is not an integer"),
        ("regular", "35", 'summary regular "35" is not an integer'),
    ],
    ids=["census-true", "tiles-float", "regular-true", "regular-string"],
)
def test_summary_counts_must_be_integers(tmp_path, capsys, field, value, fragment):
    """A JSON true equals 1 and 36.0 equals 36, but neither is a count: the
    triangle's sd² file with either in its summary exits 1, the field
    named."""
    source = tmp_path / "triangle.txt"
    source.write_text("a b c\n")
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(source), "--morse", "greedy", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"]["census"] == {"0": 1}
    assert (summary["summary"]["tiles"], summary["summary"]["regular"]) == (36, 35)
    assert run(["verify", str(source), "--tiling", str(out), "-o", "/dev/null"]) == 0
    summary["summary"][field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:-1] + [_line(summary)]) + "\n")
    capsys.readouterr()
    assert run(["verify", str(source), "--tiling", str(bad), "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def _triangle_file(tmp_path):
    """The triangle ``a b c`` and its greedy sd² file's lines."""
    source = tmp_path / "triangle.txt"
    source.write_text("a b c\n")
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(source), "--morse", "greedy", "-o", str(out)]) == 0
    return source, out.read_text().splitlines()


def test_a_wrong_tile_count_is_its_own_failure(tmp_path):
    """The triangle's greedy sd² file with its summary's tiles set to 35:
    the census agrees, so the one failure names the tile count, the
    certificate reads not ok and verify exits 2."""
    source, lines = _triangle_file(tmp_path)
    summary = json.loads(lines[-1])
    summary["summary"]["tiles"] = 35
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:-1] + [_line(summary)]) + "\n")
    cert_path = tmp_path / "cert.json"
    assert run(["verify", str(source), "--tiling", str(bad), "-o", str(cert_path)]) == 2
    cert = json.loads(cert_path.read_text())
    assert cert["ok"] is False
    assert cert["failures"] == [{"tile": None, "reason": "recorded tiles 35 != recomputed 36", "witness": None}]


@pytest.mark.parametrize(
    "placement, message",
    [
        ("bogus-summary-first", "tiling line 38 follows the summary record on line 37"),
        ("summary-first", "tiling line 2 follows the summary record on line 1"),
    ],
)
def test_the_summary_comes_once_and_last(tmp_path, capsys, placement, message):
    """A bogus summary (census {0: 5}) before the real one, or the real one
    before the tile lines, exits 1 naming the line that follows the first
    summary."""
    source, lines = _triangle_file(tmp_path)
    bogus = json.loads(lines[-1])
    bogus["summary"]["census"] = {"0": 5}
    placed = {
        "bogus-summary-first": lines[:-1] + [_line(bogus), lines[-1]],
        "summary-first": lines[-1:] + lines[:-1],
    }[placement]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(placed) + "\n")
    capsys.readouterr()
    assert run(["verify", str(source), "--tiling", str(bad), "-o", "/dev/null"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fault", ["drop", "flip"])
def test_shell_sd2_audit_rejects_a_corrupted_tiling(circle_file, monkeypatch, capsys, fault):
    """The contract the benchmark's ``--corrupt`` control relies on: wrap
    ``cli.shell_sd2_from_dmf``, unpack its (tiling, census) pair, drop the
    middle tile or flip one of its ridges with the four-field constructor;
    ``shell-sd2`` then exits 2 from the audit with the failures on stderr."""
    original = cli.shell_sd2_from_dmf

    def corrupted(k, f):
        tiling, census = original(k, f)
        tiles = list(tiling.tiles)
        i = len(tiles) // 2
        if fault == "drop":
            del tiles[i]
        else:
            t = tiles[i]
            ridges = set(t.missing_ridges) ^ {t.underlying.ridges()[0]}
            tiles[i] = MorseTile(t.underlying, frozenset(ridges), t.morse_face, t.anchor)
        return Tiling(tiling.space, tuple(tiles)), census

    monkeypatch.setattr(cli, "shell_sd2_from_dmf", corrupted)
    assert run(["shell-sd2", str(circle_file), "-o", "/dev/null"]) == 2
    cert = json.loads(capsys.readouterr().err)
    assert cert["ok"] is False and not cert["partition_ok"] and cert["failures"]


def test_shell_sd_builds_no_morse_tile(tmp_path, monkeypatch):
    """The sd command writes its lines from rows too: with the
    ``MorseTile`` constructor refusing, it writes the same bytes."""
    source = tmp_path / "two.txt"
    source.write_text("a b c\nb c d\n")
    plain, rows = tmp_path / "plain.jsonl", tmp_path / "rows.jsonl"
    argv = ["shell-sd", str(source), "--vertex", "a", "-o"]
    assert run(argv + [str(plain)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the sd command built a MorseTile")

    with monkeypatch.context() as m:
        m.setattr(MorseTile, "__init__", refuse)
        assert run(argv + [str(rows)]) == 0
    assert plain.read_bytes() == rows.read_bytes()


def test_shell_sd2_builds_no_morse_tile(torus_file, tmp_path, monkeypatch):
    """The sd² command runs on rows from the engine to the file: with the
    ``MorseTile`` constructor and the MorseTile encoder refusing, it writes
    the same bytes.  ``verify`` reads the file back as rows and certifies
    it."""
    plain, rows = tmp_path / "plain.jsonl", tmp_path / "rows.jsonl"
    argv = ["shell-sd2", str(torus_file), "--morse", "greedy", "-o"]
    assert run(argv + [str(plain)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the sd² command built a MorseTile")

    with monkeypatch.context() as m:
        m.setattr(MorseTile, "__init__", refuse)
        m.setattr(verify, "_tile_shape", refuse)
        assert run(argv + [str(rows)]) == 0
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (plain, rows)]
    assert digest[0] == digest[1]
    cert = tmp_path / "cert.json"
    assert run(["verify", str(torus_file), "--tiling", str(rows), "-o", str(cert)]) == 0
    assert json.loads(cert.read_text())["ok"] is True
