"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/selftest.py

A plain ``pytest`` run of the repository does not collect this file (its
name does not match ``test_*.py``): the negative controls run the
benchmark command, about a minute in all.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from morseshell.complexes import Simplex, make_complex  # noqa: E402
from morseshell.morse import critical_census, dmf_from_matching  # noqa: E402

SEEDS = range(5)


def _inputs_digest(seed: int) -> str:
    """sha256 of every input the generator makes for one seed."""
    parts = []
    for base in gen.BASES:
        k = gen.named_complex(base, seed)
        sd = gen.subdivided_complex(k, seed, base)
        parts += [
            gen.complex_text(k),
            gen.complex_text(sd),
            gen.matching_json(gen.seeded_matching(k, seed, base)),
            gen.matching_json(gen.seeded_matching(sd, seed, f"sd-{base}")),
        ]
    parts.append(json.dumps(gen.join_cases(seed, run.JOIN_EVERY)))
    return hashlib.sha256("".join(parts).encode()).hexdigest()


def test_same_seed_gives_byte_identical_inputs_across_processes():
    code = f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; " \
           "import selftest; print(selftest._inputs_digest(7))"
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert digests == {_inputs_digest(7)}
    assert _inputs_digest(8) != _inputs_digest(7)


@pytest.mark.parametrize("base", sorted(gen.BASES))
def test_dmf_from_matching_accepts_every_generated_matching(base):
    for seed in SEEDS:
        k = gen.named_complex(base, seed)
        for facets, tag in ((k, base), (gen.subdivided_complex(k, seed, base), f"sd-{base}")):
            pairs = gen.seeded_matching(facets, seed, tag)
            complex_ = make_complex([list(f) for f in facets])
            f = dmf_from_matching(complex_, [(Simplex(a), Simplex(b)) for a, b in pairs])
            assert critical_census(complex_, f) == gen.matching_census(facets, pairs)


def test_join_sweep_enumerates_the_318_criterion_3_pairs():
    strata = gen.join_strata()
    assert sum(len(pairs) for _, _, pairs in strata) == 318
    picked = {c["id"][:3] for c in gen.join_cases(0, run.JOIN_EVERY)}
    assert picked == {f"j{a}{b}" for a, b, _ in strata}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "1", "--trace", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_clean_run_passes_recorded_checksums():
    proc = _bench("--workload", "join-sweep", "--seed", "1")
    result = _result(proc)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload,fault", [
    ("sd2-pipeline", "drop"),
    ("join-sweep", "flip"),
    ("morse-sd", "flip"),
])
def test_corrupted_output_counts_as_failed(workload, fault):
    proc = _bench("--workload", workload, "--seed", "5", "--corrupt", fault)
    result = _result(proc)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED" in proc.stderr


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = _bench("--workload", "join-sweep", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
