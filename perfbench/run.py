#!/usr/bin/env python3
"""Benchmark of the morseshell pipeline: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Each workload is a closed loop in one process and one thread: a round runs
every case once, each case starting after the previous one ends, and rounds
repeat while another fits in ``--seconds``.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, and with
``--trace 1`` the per-layer metrics of one traced round (spans are written
to ``perfbench/out/``).  The exit code is 0 only when every case passed its
checks.  See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RECORDED = HERE / "recorded.json"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("sd2-pipeline", "join-sweep", "morse-sd")
RECORDED_SEED = 1
# One in JOIN_EVERY of each (a, b) stratum of the 318 join pairs runs per
# round; the whole sweep takes about a minute, too long for one round.
JOIN_EVERY = 10
SETUP_PROBES = 7
TAIL_BEYOND = 10
CALIBRATION_LOOP = 1_500_000


# -- cases ----------------------------------------------------------------------


@dataclass
class Outcome:
    problems: List[str]
    faces: int = 0          # faces of the certified space, or faces given a value
    tiles: int = 0          # tiles emitted
    bytes_out: int = 0      # bytes the program wrote
    digest: Optional[str] = None


@dataclass
class Case:
    id: str
    run: Callable[[Optional[str]], object]    # timed; argument: fault to inject
    check: Callable[[object], Outcome]        # untimed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _census(raw: Dict) -> Dict[int, int]:
    return {int(k): v for k, v in raw.items() if v}


def _morse_bound_ok(census: Dict[int, int], betti, euler: int) -> bool:
    """Weak Morse inequalities and the Euler count, for functions whose
    exact census is not known in advance (the greedy ones)."""
    signed = sum((-1) ** d * n for d, n in census.items())
    return signed == euler and all(census.get(d, 0) >= b for d, b in enumerate(betti))


def _corrupt_tiling(tiling, fault: str):
    """Drop the middle tile, or flip one ridge of it."""
    from morseshell.engine import Tiling
    from morseshell.tiles import MorseTile

    tiles = list(tiling.tiles)
    k = len(tiles) // 2
    if fault == "drop":
        del tiles[k]
    else:
        t = tiles[k]
        ridges = set(t.missing_ridges) ^ {t.underlying.ridges()[0]}
        tiles[k] = MorseTile(t.underlying, frozenset(ridges), t.morse_face, t.anchor)
    return Tiling(tiling.space, tuple(tiles))


def sd2_pipeline_cases(seed: int, work: Path) -> List[Case]:
    """``morseshell shell-sd2`` through ``cli.run``: torus and RP² with the
    trivial, greedy and a random function; ∂Δ⁴ with a random function only,
    since its cost hardly depends on the function and one case of it takes
    about 8 s."""
    import morseshell.cli as cli

    plan = {
        "torus": ("trivial", "greedy", "random"),
        "rp2": ("trivial", "greedy", "random"),
        "bd4": ("random",),
    }
    cases = []
    for base, functions in plan.items():
        facets = gen.named_complex(base, seed)
        betti = gen.BASES[base][1]
        kpath = work / f"{base}.txt"
        kpath.write_text(gen.complex_text(facets))
        n_tiles = len(facets) * factorial(len(facets[0])) ** 2
        n_faces = gen.sd_face_count(facets, 2)
        for fn in functions:
            if fn == "random":
                pairs = gen.seeded_matching(facets, seed, base)
                morse = work / f"{base}.pairs.json"
                morse.write_text(gen.matching_json(pairs))
                spec, expected = str(morse), gen.matching_census(facets, pairs)
            else:
                spec = fn
                expected = dict(enumerate(gen.f_vector(facets))) if fn == "trivial" else None
            out = work / f"{base}-{fn}.jsonl"
            cases.append(Case(
                f"{base}/{fn}",
                _sd2_run(cli, str(kpath), spec, out),
                _sd2_check(out, n_tiles, n_faces, expected, betti, gen.euler(facets)),
            ))
    return cases


def _sd2_run(cli, kpath: str, spec: str, out: Path):
    def run(fault):
        if fault is None:
            return cli.run(["shell-sd2", kpath, "--morse", spec, "-o", str(out)])
        original = cli.shell_sd2_from_dmf

        def corrupted(k, f):
            tiling, census = original(k, f)
            return _corrupt_tiling(tiling, fault), census

        cli.shell_sd2_from_dmf = corrupted
        try:
            return cli.run(["shell-sd2", kpath, "--morse", spec, "-o", str(out)])
        finally:
            cli.shell_sd2_from_dmf = original
    return run


def _sd2_check(out: Path, n_tiles: int, n_faces: int, expected, betti, euler: int):
    def check(rc) -> Outcome:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            data = out.read_bytes()
        except OSError as err:
            return Outcome(problems + [f"no output: {err}"])
        out.unlink()
        lines = data.decode().splitlines()
        tile_lines, summary = lines[:-1], json.loads(lines[-1])["summary"]
        digest = _sha(("\n".join(tile_lines) + "\n").encode())
        if summary["checksum"] != f"sha256:{digest}":
            problems.append("summary checksum does not match the tile lines")
        if len(tile_lines) != n_tiles or summary["tiles"] != n_tiles:
            problems.append(f"{len(tile_lines)} tiles, expected {n_tiles}")
        census = _census(summary["census"])
        if expected is not None and census != _census(expected):
            problems.append(f"census {census} != expected {expected}")
        if expected is None and not _morse_bound_ok(census, betti, euler):
            problems.append(f"census {census} breaks the Euler count or weak Morse inequalities")
        return Outcome(problems, n_faces, len(tile_lines), len(data), _sha(data))
    return check


def join_sweep_cases(seed: int, work: Path) -> List[Case]:
    """``shell_sd_join`` then ``verify_tiling`` over a stratified subset of
    the criterion-3 pairs (basic T on Δᵃ, Morse T′ on Δᵇ, a + b ≤ 3)."""
    import morseshell.engine as engine
    import morseshell.verify as verify
    from morseshell.complexes import Simplex
    from morseshell.tiles import MorseTile

    def tile(shape) -> MorseTile:
        simplex, removed, mu = shape
        return MorseTile(
            Simplex(simplex),
            frozenset(Simplex(r) for r in removed),
            None if mu is None else Simplex(mu),
        )

    cases = []
    for spec in gen.join_cases(seed, JOIN_EVERY):
        t, tp = tile(spec["left"]), tile(spec["right"])
        cases.append(Case(spec["id"], _join_run(engine, verify, t, tp), _join_check(t, tp)))
    return cases


def _join_run(engine, verify, t, tp):
    def run(fault):
        tiling, prefix = engine.shell_sd_join(t, tp)
        if fault is not None:
            tiling = _corrupt_tiling(tiling, fault)
        return tiling, prefix, verify.verify_tiling(tiling.space, tiling)
    return run


def _join_check(t, tp):
    """Certificate, tile count and the criterion-3 contract on where the
    critical tiles sit relative to the initial segment."""
    def check(result) -> Outcome:
        from morseshell.serial import tiling_to_lines
        from morseshell.tiles import tile_join

        tiling, prefix, cert = result
        problems = [] if cert.ok else [f"certificate not ok: {cert.failures[:1]}"]
        n_tiles = factorial(len(t.underlying) + len(tp.underlying))
        if len(tiling.tiles) != n_tiles:
            problems.append(f"{len(tiling.tiles)} tiles, expected {n_tiles}")
        got = []
        for i, tile in enumerate(tiling.tiles):
            cls = tile.tile_class()
            if cls.is_critical:
                got.append((i < prefix, cls.index))
        joined = tile_join(t, tp)
        if t.is_open and tp.is_closed:
            want = [(True, t.dim), (False, t.dim + 1)]
        elif joined.tile_class().is_critical:
            want = [(joined.is_closed, joined.tile_class().index)]
        else:
            want = []
        if got != want:
            problems.append(f"critical tiles (in segment, index) {got} != {want}")
        text = "\n".join(tiling_to_lines(tiling, 1, cert.census)) + "\n"
        return Outcome(problems, len(tiling.space.faces()), len(tiling.tiles), 0, _sha(text.encode()))
    return check


def morse_sd_cases(seed: int, work: Path) -> List[Case]:
    """``morseshell morse`` on sd(K), relabelled to atoms, for the trivial,
    greedy and a loaded random function."""
    import morseshell.cli as cli

    cases = []
    for base in ("torus", "rp2", "bd4"):
        facets = gen.subdivided_complex(gen.named_complex(base, seed), seed, base)
        faces = gen.faces_of(facets)
        kpath = work / f"sd-{base}.txt"
        kpath.write_text(gen.complex_text(facets))
        pairs = gen.seeded_matching(facets, seed, f"sd-{base}")
        fpath = work / f"sd-{base}.pairs.json"
        fpath.write_text(gen.matching_json(pairs))
        expect = {
            "trivial": dict(enumerate(gen.f_vector(facets))),
            "greedy": None,
            "load": gen.matching_census(facets, pairs),
        }
        betti = gen.BASES[base][1]
        for kind, expected in expect.items():
            out = work / f"sd-{base}-{kind}.json"
            argv = ["morse", str(kpath), kind, "-o", str(out)]
            if kind == "load":
                argv += ["--function", str(fpath)]
            cases.append(Case(
                f"sd-{base}/{kind}",
                _morse_run(cli, argv, out),
                _morse_check(out, faces, expected, betti, gen.euler(facets)),
            ))
    return cases


def _morse_run(cli, argv, out: Path):
    def run(fault):
        rc = cli.run(argv)
        if fault is not None and rc == 0:
            _corrupt_morse(out, fault)
        return rc
    return run


def _corrupt_morse(out: Path, fault: str) -> None:
    """Drop one face's value, or push an edge below one of its vertices."""
    values = json.loads(out.read_text())["values"]
    if fault == "drop":
        del values[min(values)]
    else:
        edge = min(k for k in values if " " in k)
        values[edge] = str(Fraction(values[edge.split()[0]]) - 1)
    out.write_text(json.dumps({"values": values}, sort_keys=True, separators=(",", ":")) + "\n")


def _morse_check(out: Path, faces, expected, betti, euler: int):
    """Independent check that the output is a canonical discrete Morse
    function on every face: monotone, each value shared by at most two
    faces, and shared values only on ridge-coface pairs."""
    def check(rc) -> Outcome:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            data = out.read_bytes()
        except OSError as err:
            return Outcome(problems + [f"no output: {err}"])
        out.unlink()
        raw = json.loads(data)["values"]
        values = {tuple(sorted(k.split())): Fraction(v) for k, v in raw.items()}
        if set(values) != set(faces):
            return Outcome(problems + ["function is not defined on exactly the faces of K"])
        groups: Dict[Fraction, list] = {}
        for s, v in values.items():
            groups.setdefault(v, []).append(s)
        partner = {}
        for group in groups.values():
            if len(group) > 2:
                problems.append(f"value shared by {len(group)} faces")
            elif len(group) == 2:
                a, b = sorted(group, key=len)
                if len(b) != len(a) + 1 or not set(a) < set(b):
                    problems.append(f"{a} and {b} share a value but are not a ridge and coface")
                partner[a], partner[b] = b, a
        for s in faces:
            for v in s if len(s) > 1 else ():
                r = tuple(w for w in s if w != v)
                if values[r] > values[s] or (values[r] == values[s] and partner.get(r) != s):
                    problems.append(f"not monotone at {r} < {s}")
                    break
        census: Dict[int, int] = {}
        for group in groups.values():
            if len(group) == 1:
                census[len(group[0]) - 1] = census.get(len(group[0]) - 1, 0) + 1
        if expected is not None and census != _census(expected):
            problems.append(f"census {census} != expected {expected}")
        if expected is None and not _morse_bound_ok(census, betti, euler):
            problems.append(f"census {census} breaks the Euler count or weak Morse inequalities")
        return Outcome(problems, len(faces), 0, len(data), _sha(data))
    return check


PREPARE = {
    "sd2-pipeline": sd2_pipeline_cases,
    "join-sweep": join_sweep_cases,
    "morse-sd": morse_sd_cases,
}


# -- rounds -----------------------------------------------------------------------


@dataclass
class Round:
    ids: List[str] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)

    def add(self, case_id: str, elapsed: float, outcome: Outcome) -> None:
        self.ids.append(case_id)
        self.times.append(elapsed)
        self.outcomes.append(outcome)

    @property
    def wall(self) -> float:
        """Time of the cases run back to back; the checks between them
        are not counted."""
        return sum(self.times)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)

    def total(self, attr: str) -> int:
        return sum(getattr(o, attr) for o in self.outcomes)


def run_case(case: Case, recorded: Optional[Dict[str, str]], fault: Optional[str] = None, hook=None):
    """Time one case, then check its output; returns (seconds, outcome).
    ``hook`` (a span tracer or call counter) records only while the case
    runs, not during the check."""
    if hook is not None:
        hook.case, hook.active = case.id, True
    start = perf_counter()
    try:
        result = case.run(fault)
        error = None
    except Exception:  # a case that raises counts as failed; the loop goes on
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if hook is not None:
        hook.active = False
    if error is None:
        try:
            outcome = case.check(result)
        except Exception:  # unreadable output counts as failed too
            error = traceback.format_exc(limit=3)
    if error is not None:
        outcome = Outcome([f"raised: {error}"])
    if recorded is not None and outcome.digest is not None:
        want = recorded.get(case.id)
        if want is None:
            outcome.problems.append("no recorded checksum for this case")
        elif want != outcome.digest:
            outcome.problems.append("output differs from the recorded checksum")
    for problem in outcome.problems:
        print(f"FAILED {case.id}: {problem}", file=sys.stderr)
    return elapsed, outcome


def run_round(cases: List[Case], recorded, fault: Optional[str] = None) -> Round:
    """Every case once, back to back; ``fault`` is injected into the first."""
    rnd = Round()
    for i, case in enumerate(cases):
        rnd.add(case.id, *run_case(case, recorded, fault if i == 0 else None))
    return rnd


def traced_round(cases: List[Case], recorded, fault: Optional[str], tracer, counter):
    """Each case runs untraced, then traced, then counted, one right after
    the other, so that its untraced and traced times are taken close
    together on a host whose speed drifts."""
    plain, traced, counted = Round(), Round(), Round()
    for i, case in enumerate(cases):
        plain.add(case.id, *run_case(case, recorded, fault if i == 0 else None))
        for hook, rnd in ((tracer, traced), (counter, counted)):
            hook.install()
            try:
                rnd.add(case.id, *run_case(case, recorded, hook=hook))
            finally:
                hook.uninstall()
    return plain, traced, counted


def timed_rounds(cases, recorded, seconds: float, fault) -> List[Round]:
    """At least one round; another only while it still fits in the budget."""
    rounds: List[Round] = []
    start = perf_counter()
    longest = 0.0
    while not rounds or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        rounds.append(run_round(cases, recorded, fault if not rounds else None))
        longest = max(longest, perf_counter() - t0)
    return rounds


# -- metrics ----------------------------------------------------------------------


def tail(times: List[float]):
    """The highest percentile with at least TAIL_BEYOND cases beyond it, for
    at least 2 * TAIL_BEYOND cases; the maximum otherwise."""
    s = sorted(times)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(rounds: List[Round], setup: List[float]) -> Dict[str, tuple]:
    """Each case's time is its median over the run's rounds, so a burst of
    host load during one round moves no metric; a round's wall time is the
    sum of those medians.  The statistics are then over the distinct cases,
    whose number does not depend on how many rounds fit in the run."""
    per_case = [statistics.median(ts) for ts in zip(*(r.times for r in rounds))]
    wall = sum(per_case)
    tail_s, tail_pct = tail(per_case)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "case_p50_ms": (statistics.median(per_case) * 1000, "ms"),
        "case_tail_ms": (tail_s * 1000, "ms", f"p{tail_pct:.1f} of {len(per_case)} cases"),
        "faces_per_s": (rounds[0].total("faces") / wall, "faces/s"),
    }


def per_layer(plain: Round, traced: Round, tracer, counter, calib: List[float]) -> Dict[str, tuple]:
    recorded_spans = tracer.spans
    own = spans.self_times(recorded_spans)
    layers: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (name, *_), t in zip(recorded_spans, own):
        layer = spans.layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    engine_s = spans.outermost_time(recorded_spans, "engine.")
    verify_s = spans.outermost_time(recorded_spans, "verify.")
    tiles_out = traced.total("tiles")
    faces_calls = calls.get("tiles.MorseTile.faces", 0)
    counts = tracer.counts
    m = {
        "labels.bary_calls": (counter.bary_calls, "count"),
        "complexes.simplex_new": (counter.simplex_new, "count"),
        "tiles.faces_s": (layers.get("tiles.faces", 0.0), "s"),
        "tiles.faces_calls": (faces_calls, "count"),
        "tiles.faces_calls_per_tile": (faces_calls / tiles_out if tiles_out else 0.0, "ratio"),
        "tiles.classify_s": (layers.get("tiles.classify", 0.0), "s"),
        "tiles.classify_calls": (calls.get("tiles.classify", 0), "count"),
        "verify.self_s": (layers.get("verify.self", 0.0), "s"),
        "verify.betti_s": (layers.get("verify.betti", 0.0), "s"),
        "verify.betti_faces": (counts.get("verify.betti_faces", 0), "count"),
        "morse.generate_s": (layers.get("morse.generate", 0.0), "s"),
        "morse.validate_s": (layers.get("morse.validate", 0.0), "s"),
        "morse.validate_calls": (calls.get("morse.validate", 0), "count"),
        "morse.canonicalize_s": (layers.get("morse.canonicalize", 0.0), "s"),
        "morse.filtration_s": (layers.get("morse.filtration", 0.0), "s"),
        "morse.critical_steps": (counts.get("morse.critical_steps", 0), "count"),
        "morse.collapse_steps": (counts.get("morse.collapse_steps", 0), "count"),
        "engine.self_s": (layers.get("engine.self", 0.0), "s"),
        "engine.tiles_out": (tiles_out, "count"),
        "engine.tiles_per_s": (tiles_out / engine_s if engine_s else 0.0, "1/s"),
        "complexes.barycentric_s": (layers.get("complexes.barycentric", 0.0), "s"),
        "complexes.link_s": (layers.get("complexes.link", 0.0), "s"),
        "tiles.build_s": (layers.get("tiles.build", 0.0), "s"),
        "serial.write_s": (layers.get("serial.write", 0.0), "s"),
        "serial.read_s": (layers.get("serial.read", 0.0), "s"),
        "serial.bytes_out": (traced.total("bytes_out"), "B"),
        "cli.self_s": (layers.get("cli.self", 0.0), "s"),
        "verify.to_build_ratio": (verify_s / engine_s if engine_s else 0.0, "ratio"),
        "trace.overhead_frac": ((traced.wall - plain.wall) / plain.wall, "ratio"),
        "host.calib_s": (statistics.median(calib), "s"),
    }
    shares = {k: v / traced.wall for k, v in sorted(layers.items())}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return m, shares


# -- run --------------------------------------------------------------------------


def calibrate() -> float:
    """A fixed pure-Python loop, to tell host drift from a regression."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def machine_facts(load) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as info:
            model = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "loadavg": [round(x, 2) for x in load],
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports the program and builds and
    writes this workload's inputs: the set-up a command-line user pays."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def load_recorded() -> Dict[str, Dict[str, str]]:
    return json.loads(RECORDED.read_text()) if RECORDED.exists() else {}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", choices=("drop", "flip"), default=None,
                   help="negative control: corrupt the first case's output")
    p.add_argument("--record", action="store_true",
                   help=f"store the output checksums of seed {RECORDED_SEED} in {RECORDED.name}")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morseshell" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != RECORDED_SEED:
        print(f"error: --record needs --seed {RECORDED_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / f".work-{os.getpid()}"
    work.mkdir()
    try:
        if args.setup_only:
            import morseshell  # noqa: F401
            PREPARE[args.workload](args.seed, work)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    facts = machine_facts(os.getloadavg())
    calib = [calibrate()]
    setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    cases = PREPARE[args.workload](args.seed, work)
    recorded = None
    if args.seed == RECORDED_SEED and not args.record:
        recorded = load_recorded().get(args.workload, {})

    if args.trace:
        tracer, counter = spans.Tracer(), spans.Counter()
        plain, traced, counted = traced_round(cases, recorded, args.corrupt, tracer, counter)
        rounds = [plain, traced, counted]
    else:
        rounds = timed_rounds(cases, recorded, args.seconds, args.corrupt)
    calib.append(calibrate())
    facts["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]

    if args.record:
        stored = load_recorded()
        stored[args.workload] = {i: o.digest for i, o in zip(rounds[0].ids, rounds[0].outcomes)}
        RECORDED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    attempted = sum(len(r.times) for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"machine: {json.dumps(facts)}")
    print(f"host.calib_s before/after: {calib[0]:.4f} {calib[1]:.4f}")
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} cases per round, "
          f"{len(rounds)} rounds, {attempted} cases")
    label = "round wall_s (untraced, traced, counted)" if args.trace else "round wall_s"
    print(f"{label}: " + " ".join(f"{r.wall:.3f}" for r in rounds))
    for i, case_id in enumerate(rounds[0].ids):
        print(f"case {case_id} ms: " + " ".join(f"{r.times[i] * 1000:.1f}" for r in rounds))
    e2e = end_to_end(rounds[:1] if args.trace else rounds, setup)
    e2e["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit, *note) in e2e.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    if args.trace:
        metrics, shares = per_layer(plain, traced, tracer, counter, calib)
        OUT.mkdir(exist_ok=True)
        stem = f"trace-{args.workload}-s{args.seed}"
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
        summary = {"machine": facts, "metrics": metrics, "shares_of_traced_wall": shares}
        (OUT / f"{stem}.summary.json").write_text(json.dumps(summary, indent=1) + "\n")
        for name, value in shares.items():
            print(f"share {name} {value:.3f}")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics = {k: v[:2] for k, v in e2e.items() if k != "failed_frac"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
