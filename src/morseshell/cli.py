"""Batch front door.

Commands:

* ``info``       f-vector, Euler characteristic, mod-2 Betti numbers;
* ``sd``         emit the subdivided complex (depth 0, 1 or 2);
* ``morse``      produce (trivial/greedy) or load a function, canonical form out;
* ``shell-sd``   vertex-star-first shelling of sd(S);
* ``shell-sd2``  full pipeline on sd²(K): tiling, census, certificate;
* ``verify``     certify a tiling file, and the classes and counts it records.

Exit codes: 0 or 2 on the ``ok`` of the command's certificate, where it
makes one, 1 on a usage or parse error.
All outputs are deterministic; identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, TextIO

from .complexes import RelativeComplex, SimplicialComplex, barycentric
from .engine import Tiling, shell_sd_relative, shell_sd2_from_dmf
from .labels import atom
from .morse import greedy_collapse_dmf, trivial_dmf
from .serial import (
    certificate_to_json,
    dump_complex_json,
    dump_morse_json,
    load_complex,
    load_morse_json,
    tiling_from_lines,
    tiling_to_lines,
)
from .verify import Certificate, audit, mod2_betti, verify_tiling

log = logging.getLogger("morseshell")

MAX_DEPTH = 2  # the deepest subdivision morseshell builds, shells or verifies


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from None


@contextmanager
def _opened(path: Optional[str]) -> Iterator[TextIO]:
    """The output file, or stdout for no path or ``-``."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as out:
            yield out


def _write(path: Optional[str], text: str) -> None:
    with _opened(path) as out:
        out.write(text)


def _load_space(path: str) -> RelativeComplex:
    try:
        return load_complex(_read(path))
    except (ValueError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot parse complex {path}: {err}") from None


def _subdivide(s: RelativeComplex, depth: int) -> RelativeComplex:
    for _ in range(depth):
        s = barycentric(s)
    return s


def cmd_info(args) -> int:
    s = _load_space(args.input)
    k = s.ambient
    data = {
        "facets": len(k.facets),
        "dimension": k.dim,
        "f_vector": list(k.f_vector()),
        "euler": k.euler(),
        "mod2_betti": list(mod2_betti(k)),
    }
    if not s.missing.is_void:
        data["missing_faces"] = len(s.missing.faces()) - 1
        data["relative_euler"] = s.euler()
    _write(args.output, json.dumps(data, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_sd(args) -> int:
    s = _subdivide(_load_space(args.input), args.depth)
    _write(args.output, dump_complex_json(s))
    return 0


def _obtain_morse(k: SimplicialComplex, kind: str, path: Optional[str]):
    """The trivial or greedy function on k, or the canonical one in path."""
    if kind == "trivial":
        return trivial_dmf(k)
    if kind == "greedy":
        return greedy_collapse_dmf(k)
    if not path:
        raise UsageError("morse load requires --function FILE")
    return load_morse_json(_read(path), k)


def cmd_morse(args) -> int:
    s = _load_space(args.input)
    f = _obtain_morse(s.ambient, args.kind, args.function)
    _write(args.output, dump_morse_json(f))
    return 0


def _emit_tiling(args, tiling: Tiling, depth: int, cert: Certificate) -> int:
    """Write the tiling lines with the certificate's census, which also
    gives each line's class; a failed certificate also goes to stderr,
    with exit code 2."""
    with _opened(args.output) as out:
        for line in tiling_to_lines(tiling, depth, cert.census):
            out.write(line)
            out.write("\n")
    if not cert.ok:
        sys.stderr.write(certificate_to_json(cert))
        return 2
    return 0


def cmd_shell_sd(args) -> int:
    s = _load_space(args.input)
    v = atom(args.vertex)
    tiling, prefix = shell_sd_relative(s, v)
    cert = verify_tiling(tiling.space, tiling, strong=args.strong, homology_of=s)
    log.info("star segment: %d of %d tiles", prefix, len(tiling))
    return _emit_tiling(args, tiling, 1, cert)


def cmd_shell_sd2(args) -> int:
    s = _load_space(args.input)
    if not s.missing.is_void:
        raise UsageError("shell-sd2 expects an absolute complex")
    if not args.morse:
        raise UsageError("--morse needs 'trivial', 'greedy' or a Morse file")
    k = s.ambient
    f = _obtain_morse(k, args.morse, args.morse)
    tiling, _ = shell_sd2_from_dmf(k, f)
    cert = audit(k, f, tiling, strong=args.strong)
    return _emit_tiling(args, tiling, 2, cert)


def _class_text(index: Optional[int]) -> str:
    return "regular" if index is None else f"critical {index}"


def cmd_verify(args) -> int:
    """Certify the tiles of a file and every class and count it records."""
    s = _load_space(args.input)
    tiles, classes, summary, checksum_ok = tiling_from_lines(_read(args.tiling).splitlines())
    depth = int(summary.get("depth", 0))
    if depth > MAX_DEPTH:
        raise UsageError(f"summary depth {depth} is above {MAX_DEPTH}, the deepest tiling morseshell writes")
    space = _subdivide(s, depth)
    tiling = Tiling(space, tuple(tiles))
    cert = verify_tiling(space, tiling, strong=args.strong, homology_of=s)
    census = cert.census
    cert.failures.extend(
        (p, f"recorded class {_class_text(index)} != recomputed {_class_text(census.indices[p])}", None)
        for p, index in classes.items()
        if index != census.indices[p]
    )
    recorded = {int(k): v for k, v in summary.get("census", {}).items()}
    if not checksum_ok:
        cert.failures.append((None, "tile lines do not match the recorded checksum", None))
    if recorded != census.critical:
        cert.failures.append((None, f"recorded census {recorded} != recomputed {census.critical}", None))
    if summary.get("tiles") != len(tiles):
        cert.failures.append((None, f"recorded tiles {summary.get('tiles')} != recomputed {len(tiles)}", None))
    if summary.get("regular", census.regular) != census.regular:
        cert.failures.append((None, f"recorded regular {summary['regular']} != recomputed {census.regular}", None))
    _write(args.output, certificate_to_json(cert))
    return 0 if cert.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morseshell",
        description="Morse shellings of barycentric subdivisions, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="complex file (facet-list text or JSON)")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("info", help="f-vector, Euler characteristic, Betti numbers")
    common(p)

    p = sub.add_parser("sd", help="emit a barycentric subdivision")
    common(p)
    p.add_argument("--depth", type=int, default=1, choices=range(MAX_DEPTH + 1))

    p = sub.add_parser("morse", help="produce or canonicalize a Morse function")
    common(p)
    p.add_argument("kind", choices=("trivial", "greedy", "load"))
    p.add_argument("--function", default=None, help="Morse JSON for 'load'")

    p = sub.add_parser("shell-sd", help="shell sd(S) starting at a vertex star")
    common(p)
    p.add_argument("--vertex", required=True, help="atom name of the start vertex")
    p.add_argument("--strong", action="store_true")

    p = sub.add_parser("shell-sd2", help="shell sd²(K) from a Morse function")
    common(p)
    p.add_argument("--morse", default="trivial", help="'trivial', 'greedy' or a file")
    p.add_argument("--strong", action="store_true")

    p = sub.add_parser("verify", help="certify a tiling file")
    common(p)
    p.add_argument("--tiling", required=True)
    p.add_argument("--strong", action="store_true")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first run and kept."""
    return build_parser()


def run(argv: Optional[List[str]] = None) -> int:
    """Run a command through ``cmd_<command>``, looked up in this module at
    each call, so a function rebound after the parser was built is the one
    called."""
    logging.basicConfig(level=os.environ.get("MORSESHELL_LOG", "WARNING").upper())
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except (ValueError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
