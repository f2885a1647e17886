import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshell import cli
from morseshell.cli import run
from morseshell.engine import Tiling
from morseshell.serial import dump_complex_json, dump_complex_text, load_complex_json
from morseshell.catalog import moebius_torus
from morseshell.complexes import RelativeComplex
from morseshell.tiles import MorseTile


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


def test_shell_sd2_pipeline_and_verify(circle_file, tmp_path):
    out = tmp_path / "t2.jsonl"
    assert run(["shell-sd2", str(circle_file), "--morse", "trivial", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["census"] == {"0": 3, "1": 3}
    assert summary["tiles"] == 12
    assert run(["verify", str(circle_file), "--tiling", str(out), "-o", "/dev/null"]) == 0


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
    lines[-1] = json.dumps(summary, sort_keys=True, separators=(",", ":"))
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


MALFORMED_COMPLEX = [
    ('{"facets": 5}', 'complex JSON needs a "facets" array'),
    ('{"facets": [["a", "b"]], "missing": 5}', 'complex JSON "missing" must be an array of facets'),
    ('{"facets": [[]]}', "facets must be non-empty"),
    ('{"facets": []}', "no facets in input"),
]


@pytest.mark.parametrize("command", ["info", "shell-sd2"])
@pytest.mark.parametrize(
    "content, fragment", MALFORMED_COMPLEX,
    ids=["facets-number", "missing-number", "empty-facet", "no-facets"],
)
def test_malformed_json_complex_exits_one(tmp_path, capsys, command, content, fragment):
    path = tmp_path / "k.json"
    path.write_text(content)
    assert run([command, str(path), "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse complex {path}: ") and err.count("\n") == 1
    assert fragment in err


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
]


@pytest.mark.parametrize("command", ["morse", "shell-sd2"])
@pytest.mark.parametrize(
    "content, fragment", MALFORMED_MORSE,
    ids=[
        "string", "pairs-number", "short-pair", "values-array", "null-value", "bool-value",
        "empty-face-string", "empty-face-array", "repeated-vertex-value", "repeated-vertex-pair",
        "same-face-twice", "face-and-repeat",
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


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("{}", 'tile record {} has no "facet"'),
        ("[1]", "tiling line '[1]' is not a JSON object"),
        ('"x"', "tiling line '\"x\"' is not a JSON object"),
        ('{"facet": ["a"], "ridges": 5}', '"ridges" that are not an array'),
        ('{"summary": 5}', "summary 5 is not an object"),
        ('{"summary": {"depth": true}}', "summary depth true is not a non-negative integer"),
        ('{"summary": {"depth": -1}}', "summary depth -1 is not a non-negative integer"),
        ('{"summary": {"depth": 3}}', "summary depth 3 is above 2, the deepest tiling morseshell writes"),
    ],
    ids=["no-facet", "array", "string", "ridges-number", "summary-number", "bool-depth", "negative-depth", "deep-depth"],
)
def test_malformed_tiling_line_exits_one(circle_file, tmp_path, capsys, line, fragment):
    out = tmp_path / "t.jsonl"
    assert run(["shell-sd2", str(circle_file), "-o", str(out)]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text(out.read_text() + line + "\n")
    capsys.readouterr()
    assert run(["verify", str(circle_file), "--tiling", str(bad), "-o", "/dev/null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


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
