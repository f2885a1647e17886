"""File formats: complexes, Morse functions, tilings, certificates.

Complexes travel either as a facet-list text file (one facet per line,
whitespace-separated atom names, ``#`` comments) or as JSON
``{"facets": [[...]], "missing": [[...]]}``.  A label serializes as a string
(atom) or as an array of labels (a barycenter).  Morse functions are JSON
maps from faces of an atom-labeled complex (space-joined names) to rational
strings, or a matching file ``{"pairs": [[face, coface], ...]}``; either
loads as its canonical function.  Tilings
are JSON lines, one tile per line in shelling order, closed by a summary
record carrying depth, census and a checksum of the tile lines.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import EMPTY, RelativeComplex, Simplex, SimplicialComplex, make_complex, void_complex
from .engine import Tiling
from .labels import Label, atom, bary
from .morse import DiscreteMorseFunction, canonicalize, dmf_from_matching
from .tiles import MorseTile
from .verify import Census, Certificate

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


def _facet_from_json(data) -> Simplex:
    s = simplex_from_json(data)
    if len(s) != len(data):
        raise ValueError(f"facet {json.dumps(data)} repeats a vertex")
    return s


def load_complex_json(text: str) -> RelativeComplex:
    """A complex K, or K \\ L with ``"missing"`` the facets of L.  A facet
    of K is non-empty; L may be {∅}, written ``[[]]``."""
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


def load_morse_json(text: str, k: SimplicialComplex) -> DiscreteMorseFunction:
    """The canonical function of a pairs file (``dmf_from_matching``) or of
    a values file (``canonicalize``)."""
    data = json.loads(text)
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
    underlying = simplex_from_json(data["facet"])
    ridges = frozenset(simplex_from_json(r) for r in data.get("ridges", ()))
    raw = data.get("morse_face")
    if raw is None:
        morse: Optional[Simplex] = None
    elif raw == "empty":
        morse = EMPTY
    else:
        morse = simplex_from_json(raw)
    return MorseTile(underlying, ridges, morse)


def _label_text(lab: Label, memo: Dict[Label, str]) -> str:
    """A label's compact JSON text, each label encoded once per ``memo``."""
    text = memo.get(lab)
    if text is None:
        if lab.is_atom:
            text = json.dumps(lab.name)
        else:
            text = "[" + ",".join([_label_text(m, memo) for m in lab.members]) + "]"
        memo[lab] = text
    return text


def tiling_to_lines(t: Tiling, depth: int, census: Census) -> List[str]:
    """Tile lines in shelling order plus the trailing summary record.

    A tile line is the compact JSON object, keys sorted, of ``class``,
    ``facet``, ``morse_face`` (null, ``"empty"`` or a simplex) and
    ``ridges``, assembled from the text of each distinct label, encoded
    once.  ``class`` (``{"critical": index}`` or ``"regular"``) is the
    tile's entry in ``census.indices``, so the census must be the tiling's
    own, as ``verify.critical_census`` or a certificate counts it; a census
    of another length raises ValueError.  The ridges are in the order
    of their JSON text with json's default ``", "`` separator, which is the
    order of their compact text: the default text only adds a space after
    each separating comma, and two texts first differ at the same point of
    their structure either way (a comma inside an atom name is escaped
    context, never a separator).
    """
    if len(census.indices) != len(t.tiles):
        raise ValueError(f"census classifies {len(census.indices)} tiles, the tiling has {len(t.tiles)}")
    memo: Dict[Label, str] = {}

    def text(s: Simplex) -> str:
        return "[" + ",".join([_label_text(v, memo) for v in s.vertices]) + "]"

    lines = []
    for tile, index in zip(t.tiles, census.indices):
        mf = tile.morse_face
        lines.append(
            '{"class":%s,"facet":%s,"morse_face":%s,"ridges":[%s]}' % (
                '"regular"' if index is None else '{"critical":%d}' % index,
                text(tile.underlying),
                "null" if mf is None else '"empty"' if mf.is_empty else text(mf),
                ",".join(sorted(map(text, tile.missing_ridges))),
            )
        )
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    summary = {
        "summary": {
            "depth": depth,
            "tiles": len(t.tiles),
            "census": {str(k): v for k, v in sorted(census.critical.items())},
            "regular": census.regular,
            "checksum": f"sha256:{digest}",
        }
    }
    lines.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return lines


def _summary_from_json(data) -> dict:
    """The summary record, checked for the shape of the fields read back."""
    if not (isinstance(data, dict) and isinstance(data.get("census", {}), dict)):
        raise ValueError(f"summary {json.dumps(data)} is not an object with a census object")
    depth = data.get("depth", 0)
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise ValueError(f"summary depth {json.dumps(depth)} is not a non-negative integer")
    return data


def tiling_from_lines(lines: Sequence[str]) -> Tuple[List[MorseTile], dict, bool]:
    """Parse tile lines and the summary; also report checksum validity."""
    tiles: List[MorseTile] = []
    summary: dict = {}
    tile_lines: List[str] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"tiling line {line!r} is not a JSON object")
        if "summary" in data:
            summary = _summary_from_json(data["summary"])
        else:
            tiles.append(tile_from_json(data))
            tile_lines.append(line)
    digest = hashlib.sha256(("\n".join(tile_lines) + "\n").encode()).hexdigest()
    checksum_ok = summary.get("checksum") == f"sha256:{digest}"
    return tiles, summary, checksum_ok


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
