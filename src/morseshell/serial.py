"""File formats: complexes, Morse functions, tilings, certificates.

Complexes travel either as a facet-list text file (one facet per line,
whitespace-separated atom names, ``#`` comments) or as JSON
``{"facets": [[...]], "missing": [[...]]}``.  A label serializes as a string
(atom) or as an array of labels (a barycenter).  Morse functions are JSON
maps from faces of an atom-labeled complex (space-joined names) to rational
strings, or a matching file ``{"pairs": [[face, coface], ...]}``; either
loads as its canonical function.  This module owns the tiling file:
JSON lines, one tile line per row in shelling order (``TILE_KEYS``),
closed by one summary record (``SUMMARY_KEYS``); its reader takes exactly
what its writer writes, and ``record_failures`` checks what the file
records against the verifier's recount.
"""
from __future__ import annotations

import hashlib
import json
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .complexes import EMPTY, RelativeComplex, Simplex, SimplicialComplex, _sorted_by_key, make_complex, void_complex
from .engine import Tiling
from .labels import Label, atom, bary
from .morse import DiscreteMorseFunction, canonicalize, dmf_from_matching
from .tiles import MorseTile
from .verify import Census, Certificate, Row, _encode

__all__ = [
    "label_to_json",
    "label_from_json",
    "simplex_to_json",
    "simplex_from_json",
    "load_complex_text",
    "dump_complex_text",
    "load_complex_json",
    "dump_complex_json",
    "load_complex",
    "load_morse_json",
    "dump_morse_json",
    "tile_from_json",
    "tiling_to_lines",
    "tiling_from_lines",
    "record_failures",
    "certificate_to_json",
]


def label_to_json(lab: Label):
    if lab.is_atom:
        return lab.name
    return [label_to_json(m) for m in lab.members]


def label_from_json(data) -> Label:
    if isinstance(data, str):
        return atom(data)
    if isinstance(data, list):
        return bary(label_from_json(x) for x in data)
    raise ValueError(f"not a label: {data!r}")


def simplex_to_json(s: Simplex) -> List:
    return [label_to_json(v) for v in s.vertices]


def simplex_from_json(data) -> Simplex:
    if not isinstance(data, list):
        raise ValueError(f"not a simplex: {data!r}")
    return Simplex(label_from_json(x) for x in data)


@contextmanager
def _nesting(what: str) -> Iterator[None]:
    """Report input nested past the recursion limit, in ``json.loads`` or
    in the recursive label decoding, as a ValueError naming ``what``."""
    try:
        yield
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


# -- complexes ---------------------------------------------------------------


def load_complex_text(text: str) -> RelativeComplex:
    facets = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        names = line.split()
        if len(set(names)) != len(names):
            raise ValueError(f"facet {line!r} repeats a vertex")
        facets.append(names)
    if not facets:
        raise ValueError("no facets in input")
    return RelativeComplex(make_complex(facets))


def dump_complex_text(s: RelativeComplex) -> str:
    if not s.missing.is_void:
        raise ValueError("text format carries absolute complexes only")
    lines = []
    for f in s.ambient.facets:
        if any(not v.is_atom for v in f):
            raise ValueError("text format carries atom labels only")
        lines.append(" ".join(v.name for v in f))
    return "\n".join(lines) + "\n"


def _facet_from_json(data, what: str = "facet") -> Simplex:
    """A simplex of an input file that repeats no vertex; ``what`` names it."""
    s = simplex_from_json(data)
    if len(s) != len(data):
        raise ValueError(f"{what} {json.dumps(data)} repeats a vertex")
    return s


def load_complex_json(text: str) -> RelativeComplex:
    """A complex K, or K \\ L with ``"missing"`` the facets of L.  A facet
    of K is non-empty; L may be {∅}, written ``[[]]``."""
    with _nesting("complex JSON"):
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("facets"), list):
            raise ValueError('complex JSON needs a "facets" array')
        missing_raw = data.get("missing") or []
        if not isinstance(missing_raw, list):
            raise ValueError('complex JSON "missing" must be an array of facets')
        facets = [_facet_from_json(f) for f in data["facets"]]
        if not facets:
            raise ValueError("no facets in input")
        if any(f.is_empty for f in facets):
            raise ValueError("facets must be non-empty")
        missing = [_facet_from_json(f) for f in missing_raw]
    return RelativeComplex(
        SimplicialComplex(facets), SimplicialComplex(missing) if missing else void_complex()
    )


def dump_complex_json(s: RelativeComplex) -> str:
    data = {"facets": [simplex_to_json(f) for f in s.ambient.facets]}
    if not s.missing.is_void:
        data["missing"] = [simplex_to_json(f) for f in s.missing.facets]
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def load_complex(text: str) -> RelativeComplex:
    """Sniff JSON versus facet-list text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return load_complex_json(text)
    return load_complex_text(text)


# -- Morse functions ---------------------------------------------------------


def _face_key(s: Simplex) -> str:
    return " ".join(v.name for v in s.vertices)


def _face_from_key(key) -> Simplex:
    if isinstance(key, str):
        names = key.split()
    elif isinstance(key, list) and all(isinstance(v, str) for v in key):
        names = key
    else:
        raise ValueError(f"Morse face {json.dumps(key)} is neither a string nor an array of names")
    if len(set(names)) != len(names):
        raise ValueError(f"Morse face {json.dumps(key)} repeats a vertex")
    return Simplex(names)


def _morse_value(key: str, raw) -> Fraction:
    """A value of a Morse file; a malformed numeral keeps Fraction's message."""
    if isinstance(raw, (str, int, float)) and not isinstance(raw, bool):
        try:
            return Fraction(raw)
        except (ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"Morse value {json.dumps(raw)} on {key!r} is not a finite number")


def _unique_keys(members: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object of a Morse file, whose keys must differ."""
    obj: Dict[str, object] = {}
    for key, value in members:
        if key in obj:
            raise ValueError(f"Morse JSON repeats the key {json.dumps(key)}")
        obj[key] = value
    return obj


def load_morse_json(text: str, k: SimplicialComplex) -> DiscreteMorseFunction:
    """The canonical function of a pairs file (``dmf_from_matching``) or of
    a values file (``canonicalize``)."""
    with _nesting("Morse JSON"):
        data = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict) or not ("pairs" in data or "values" in data):
        raise ValueError('Morse JSON needs "values" or "pairs"')
    if "pairs" in data:
        if not isinstance(data["pairs"], list):
            raise ValueError('Morse "pairs" must be an array of [face, coface] pairs')
        pairs = []
        for p in data["pairs"]:
            if not isinstance(p, list) or len(p) != 2:
                raise ValueError(f"Morse pair {json.dumps(p)} is not a [face, coface] array")
            pairs.append((_face_from_key(p[0]), _face_from_key(p[1])))
        return dmf_from_matching(k, pairs)
    if not isinstance(data["values"], dict):
        raise ValueError('Morse "values" must be an object from faces to numbers')
    values: Dict[Simplex, Fraction] = {}
    for key, raw in data["values"].items():
        s = _face_from_key(key)
        if s in values:
            raise ValueError(f"Morse face {json.dumps(key)} names a face that already has a value")
        values[s] = _morse_value(key, raw)
    return canonicalize(k, DiscreteMorseFunction(values))


def dump_morse_json(f: DiscreteMorseFunction) -> str:
    values = {}
    for s, v in f.items():
        if any(not lab.is_atom for lab in s.vertices):
            raise ValueError("Morse files carry functions on atom-labeled complexes")
        values[_face_key(s)] = f"{v.numerator}/{v.denominator}"
    return json.dumps({"values": values}, sort_keys=True, separators=(",", ":")) + "\n"


# -- tiles and tilings ---------------------------------------------------------


def tile_from_json(data: dict) -> MorseTile:
    if "facet" not in data:
        raise ValueError(f'tile record {json.dumps(data)} has no "facet"')
    if not isinstance(data.get("ridges", []), list):
        raise ValueError(f'tile record {json.dumps(data)} has "ridges" that are not an array')
    underlying = _facet_from_json(data["facet"])
    ridges = frozenset(_facet_from_json(r, "ridge") for r in data.get("ridges", ()))
    raw = data.get("morse_face")
    if raw is None:
        morse: Optional[Simplex] = None
    elif raw == "empty":
        morse = EMPTY
    else:
        morse = _facet_from_json(raw, "Morse face")
    return MorseTile(underlying, ridges, morse)


class _LabelTexts(dict):
    """Each label's compact JSON text, encoded on its first lookup and kept."""

    def __missing__(self, lab: Label) -> str:
        if lab.is_atom:
            text = json.dumps(lab.name)
        else:
            text = "[" + ",".join(map(self.__getitem__, lab.members)) + "]"
        self[lab] = text
        return text


def tiling_to_lines(t: Tiling, depth: int, census: Census) -> List[str]:
    """Tile lines in shelling order plus the trailing summary record.

    A tile line is the compact JSON object, keys sorted, of ``class``,
    ``facet``, ``morse_face`` (null, ``"empty"`` or a simplex) and
    ``ridges``, assembled from the tiling's rows: each label's text is
    built once, a facet's texts are joined once, and a ridge's text is the
    facet's texts minus the one at its omitted position.  A tiling holding
    a tile no row holds (``Tiling.kept_shapes``) has no lines and raises
    ValueError.  ``class`` (``{"critical": index}`` or ``"regular"``) is
    the tile's entry in ``census.indices``, so the census must be the
    tiling's own, as ``verify.critical_census`` or a certificate counts it;
    a census of another length raises ValueError.  The ridges are in the
    order of their JSON text with json's default ``", "`` separator, which
    is the order of their compact text: the default text only adds a space
    after each separating comma, and two texts first differ at the same
    point of their structure either way (a comma inside an atom name is
    escaped context, never a separator).  The summary's checksum is
    ``_checksum`` of the tile lines.
    """
    rows = t.rows
    if t.kept_shapes:
        raise ValueError(f"tile {min(t.kept_shapes)} is no row, and a tiling line holds a row")
    if len(census.indices) != len(rows):
        raise ValueError(f"census classifies {len(census.indices)} tiles, the tiling has {len(rows)}")
    label_text = _LabelTexts().__getitem__
    lines = [_tile_line(label_text, row, index) for row, index in zip(rows, census.indices)]
    summary = {
        "summary": {
            "depth": depth,
            "tiles": len(rows),
            "census": {str(k): v for k, v in sorted(census.critical.items())},
            "regular": census.regular,
            "checksum": _checksum(lines),
        }
    }
    lines.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return lines


def _tile_line(label_text: Callable[[Label], str], row: Row, index: Optional[int]) -> str:
    """The one spelling of a tile line: the text ``tiling_to_lines`` writes
    for a row and its class, and the only text ``tiling_from_lines`` reads
    back."""
    vs, omitted, morse = row
    parts = list(map(label_text, vs))
    ridges = ["[%s]" % ",".join(parts[:i] + parts[i + 1:]) for i in range(len(parts)) if omitted >> i & 1]
    mf = None if morse < 0 else [x for i, x in enumerate(parts) if morse >> i & 1]
    return '{"class":%s,"facet":[%s],"morse_face":%s,"ridges":[%s]}' % (
        '"regular"' if index is None else '{"critical":%d}' % index,
        ",".join(parts),
        "null" if mf is None else "[%s]" % ",".join(mf) if mf else '"empty"',
        ",".join(sorted(ridges)),
    )


TILE_KEYS = ["class", "facet", "morse_face", "ridges"]
SUMMARY_KEYS = ["census", "checksum", "depth", "regular", "tiles"]


def _require_keys(what: str, data: dict, keys: List[str]) -> None:
    if sorted(data) != keys:
        raise ValueError(f"{what} has the keys {json.dumps(sorted(data))}, not {json.dumps(keys)}")


def _summary_from_json(data, n: int) -> dict:
    """The summary record of line n, checked for the shape of each field it
    holds, then for holding the writer's fields."""
    if not (isinstance(data, dict) and isinstance(data.get("census", {}), dict)):
        raise ValueError(f"summary {json.dumps(data)} is not an object with a census object")
    depth = data.get("depth", 0)
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise ValueError(f"summary depth {json.dumps(depth)} is not a non-negative integer")
    for key, value in data.get("census", {}).items():
        if not re.fullmatch("-?[0-9]+", key):
            raise ValueError(f"summary census key {json.dumps(key)} is not an integer")
        _require_int(f"census[{key}]", value)
    for name in ("regular", "tiles"):
        if name in data:
            _require_int(name, data[name])
    _require_keys(f"the summary on tiling line {n}", data, SUMMARY_KEYS)
    return data


def _require_int(name: str, value) -> None:
    """A summary count must be a JSON integer; ``true`` and ``1.0`` are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"summary {name} {json.dumps(value)} is not an integer")


def _class_from_json(data, n: int) -> Optional[int]:
    """The class line n records: None for ``"regular"``, k for ``{"critical": k}``."""
    k = data.get("critical") if isinstance(data, dict) and len(data) == 1 else None
    if data != "regular" and (isinstance(k, bool) or not isinstance(k, int) or k < 0):
        raise ValueError(f'tiling line {n} has class {json.dumps(data)}, not "regular" or {{"critical": k}}, k >= 0')
    return k


def tiling_from_lines(lines: Sequence[str]) -> Tuple[int, List[Row], tuple]:
    """The depth, rows and records of a tiling file, which must be what
    ``tiling_to_lines`` writes: each field's shape is checked, then the
    keys, and a tile line becomes a row through ``verify._encode``.  The
    records are each tile line's class, the summary and whether the tile
    lines match its checksum.  A line no row holds, a tile line spelled
    otherwise than the writer spells its row and class (``_tile_line``), a
    line after the summary and a file without one are each a ValueError
    naming the line."""
    label_text = _LabelTexts().__getitem__
    rows: List[Row] = []
    classes: List[Optional[int]] = []
    summary_at = 0  # the summary's line number, once read
    tile_lines: List[str] = []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        with _nesting(f"tiling line {n}"):
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError(f"tiling line {line!r} is not a JSON object")
            if "summary" in data:
                record = _summary_from_json(data["summary"], n)
                _require_keys(f"tiling line {n}", data, ["summary"])
            else:
                tile = tile_from_json(data)
                index = _class_from_json(data["class"], n) if "class" in data else None
                _require_keys(f"tiling line {n}", data, TILE_KEYS)
                row, kept = _encode(tile)
                if kept is not None:
                    f = tile.underlying
                    bad = _sorted_by_key([r for r in tile.missing_ridges if len(r) != len(f) - 1 or not r <= f])
                    what = "ridge %s is no ridge" if bad else "Morse face %s is no proper face"
                    face = json.dumps(simplex_to_json(bad[0] if bad else tile.morse_face))
                    raise ValueError(f"tiling line {n} is no row: {what % face} of its facet")
                want = _tile_line(label_text, row, index)
                if line != want:
                    at = next((i for i, (x, y) in enumerate(zip(line, want)) if x != y), min(len(line), len(want)))
                    raise ValueError(
                        f"tiling line {n} is not spelled as the writer spells its tile (column {at + 1} differs)"
                    )
        if summary_at:
            raise ValueError(f"tiling line {n} follows the summary record on line {summary_at}")
        if "summary" in data:
            summary, summary_at = record, n
        else:
            rows.append(row)
            classes.append(index)
            tile_lines.append(line)
    if not summary_at:
        raise ValueError("tiling has no summary record: its last line must be one")
    return summary["depth"], rows, (classes, summary, summary["checksum"] == _checksum(tile_lines))


def _class_text(index: Optional[int]) -> str:
    return "regular" if index is None else f"critical {index}"


def record_failures(records: tuple, census: Census) -> List[Tuple[Optional[int], str, None]]:
    """The failures of what a tiling file records (``tiling_from_lines``)
    against the census ``verify`` recounts of its tiles."""
    classes, summary, checksum_ok = records
    failures = [
        (p, f"recorded class {_class_text(index)} != recomputed {_class_text(census.indices[p])}", None)
        for p, index in enumerate(classes)
        if index != census.indices[p]
    ]
    recorded = {int(k): v for k, v in summary["census"].items()}
    if not checksum_ok:
        failures.append((None, "tile lines do not match the recorded checksum", None))
    if recorded != census.critical:
        failures.append((None, f"recorded census {recorded} != recomputed {census.critical}", None))
    if summary["tiles"] != len(classes):
        failures.append((None, f"recorded tiles {summary['tiles']} != recomputed {len(classes)}", None))
    if summary["regular"] != census.regular:
        failures.append((None, f"recorded regular {summary['regular']} != recomputed {census.regular}", None))
    return failures


def _checksum(tile_lines: Sequence[str]) -> str:
    """The summary checksum of a tiling's tile lines, writer's and
    reader's: the SHA-256 of each line and its newline in turn (of a lone
    newline for no lines), that is of ``"\\n".join(tile_lines) + "\\n"``."""
    digest = hashlib.sha256(b"" if tile_lines else b"\n")
    for line in tile_lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return f"sha256:{digest.hexdigest()}"


def certificate_to_json(cert: Certificate) -> str:
    data = {
        "ok": cert.ok,
        "partition_ok": cert.partition_ok,
        "shelling_ok": cert.shelling_ok,
        "tiles_ok": cert.tiles_ok,
        "euler_ok": cert.euler_ok,
        "morse_inequalities_ok": cert.morse_inequalities_ok,
        "census": {str(k): v for k, v in sorted(cert.census.critical.items())},
        "regular": cert.census.regular,
        "failures": [
            {
                "tile": idx,
                "reason": reason,
                "witness": None if witness is None else simplex_to_json(witness),
            }
            for idx, reason, witness in cert.failures
        ],
    }
    if cert.strong_ok is not None:
        data["strong_ok"] = cert.strong_ok
    if cert.census_matches_function is not None:
        data["census_matches_function"] = cert.census_matches_function
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
