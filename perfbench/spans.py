"""Spans and counters wrapped around the program from outside.

``Tracer`` replaces each public function of the ``morseshell`` modules,
and a few hot methods, with a wrapper that records a span (name, start,
end, parent span, case id).  The wrapper is installed under every name that
any ``morseshell`` module binds to the original function, so calls through
``from .verify import mod2_betti`` in another module are seen too.  Spans
stay in memory until the run writes them out.

``Counter`` is a separate, lighter pass: it counts ``Simplex`` constructions
and barycenter-label requests, calls far too frequent to time one by one
without distorting the spans.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Modules whose public functions get spans.  Labels are left out: their
# functions run once per vertex of every simplex built, and are counted by
# ``Counter`` instead.
TRACED_MODULES = ("complexes", "tiles", "morse", "engine", "verify", "serial", "cli")

# Recursive per-label and per-simplex codecs, whose time stays in the serial
# function that calls them, and the validating tile constructor, whose only
# caller is ``classify``.
UNTRACED = {
    "tiles.make_tile",
    "serial.label_to_json", "serial.label_from_json",
    "serial.simplex_to_json", "serial.simplex_from_json",
    "cli.main", "cli.build_parser",
}

CLI_COMMANDS = ("run", "cmd_info", "cmd_sd", "cmd_morse", "cmd_shell_sd", "cmd_shell_sd2", "cmd_verify")

Span = Tuple[str, float, float, int, str]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "morseshell" and m]


class _Patches:
    """Replacements made in module namespaces and classes, undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def rebind(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = {}
        self.case = ""
        self.active = False
        self._stack: List[int] = []
        self._patches = _Patches()

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.case)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        import morseshell.cli  # noqa: F401  (cli is not imported by the package)
        from morseshell.tiles import MorseTile

        hooks = {
            "verify.mod2_betti": _count_betti_faces,
            "morse.filtration": _count_steps,
        }
        for short in TRACED_MODULES:
            mod = sys.modules[f"morseshell.{short}"]
            names = CLI_COMMANDS if short == "cli" else getattr(mod, "__all__", ())
            for attr in names:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn) or name in UNTRACED:
                    continue
                self._patches.rebind(fn, self._wrap(name, fn, hooks.get(name)))
        for attr in ("faces", "missing_faces"):
            fn = MorseTile.__dict__[attr]
            self._patches.set(MorseTile, attr, self._wrap(f"tiles.MorseTile.{attr}", fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid, (name, start, end, parent, case) in enumerate(self.spans):
                out.write(json.dumps([sid, name, start, end, parent, case]) + "\n")


def _count_betti_faces(counts, args, result) -> None:
    counts["verify.betti_faces"] = counts.get("verify.betti_faces", 0) + len(args[0].faces()) - 1


def _count_steps(counts, args, result) -> None:
    crit = sum(1 for step in result.steps if step.is_critical)
    counts["morse.critical_steps"] = counts.get("morse.critical_steps", 0) + crit
    counts["morse.collapse_steps"] = counts.get("morse.collapse_steps", 0) + len(result.steps) - crit


class Counter:
    """Counts Simplex constructions and barycenter-label requests."""

    def __init__(self) -> None:
        self.simplex_new = 0
        self.bary_calls = 0
        self.case = ""
        self.active = False
        self._patches = _Patches()

    def install(self) -> None:
        from morseshell.complexes import Simplex
        from morseshell.labels import LabelRegistry

        init, bary = Simplex.__init__, LabelRegistry.bary

        def counted_init(obj, vertices=()):
            self.simplex_new += self.active
            init(obj, vertices)

        def counted_bary(registry, members):
            self.bary_calls += self.active
            return bary(registry, members)

        self._patches.set(Simplex, "__init__", counted_init)
        self._patches.set(LabelRegistry, "bary", counted_bary)

    def uninstall(self) -> None:
        self._patches.undo()


# -- span analysis --------------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost_time(spans: List[Span], prefix: str) -> float:
    """Time covered by spans of one module that have no ancestor in it."""
    total = 0.0
    for sid, (name, start, end, parent, _) in enumerate(spans):
        if not name.startswith(prefix):
            continue
        p = parent
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_of(name: str) -> str:
    """The per-layer metric a span's self time is charged to."""
    module, _, fn = name.partition(".")
    if module == "tiles":
        if fn.startswith("MorseTile."):
            return "tiles.faces"
        return "tiles.classify" if fn == "classify" else "tiles.build"
    if module == "verify":
        return "verify.betti" if fn == "mod2_betti" else "verify.self"
    if module == "morse":
        if fn in ("trivial_dmf", "greedy_collapse_dmf", "dmf_from_matching"):
            return "morse.generate"
        if fn in ("validate", "canonicalize", "filtration"):
            return f"morse.{fn}"
        return "morse.other"
    if module == "complexes":
        if fn in ("barycentric", "barycentric_complex"):
            return "complexes.barycentric"
        if fn in ("link_complex", "star_complex", "star_link"):
            return "complexes.link"
        return "complexes.other"
    if module == "serial":
        reads = fn.startswith(("load_", "tile_from", "tiling_from"))
        return "serial.read" if reads else "serial.write"
    return f"{module}.self"
