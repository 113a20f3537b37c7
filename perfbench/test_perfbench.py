"""Tests of the benchmark itself.

    python -m pytest -q perfbench

They sit outside tests/, so the package suite does not collect them.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402

oracles = checker.load_oracles()


def rows_from_gens(gens):
    """The Coxeter matrix read off permutation generators."""
    n = len(gens)
    ident = tuple(range(len(gens[0])))

    def order(p):
        k, q = 1, p
        while q != ident:
            q = oracles.compose(q, p)
            k += 1
        return k

    return [[1 if i == j else order(oracles.compose(gens[i], gens[j]))
             for j in range(n)] for i in range(n)]


FINITE = {
    "A3": oracles.symmetric_gens(3),
    "B3": oracles.signed_gens(3),
    "B4": oracles.signed_gens(4),
    "D4": oracles.even_signed_gens(4),
    "F4": oracles.f4_gens(),
    "I2(6)": oracles.dihedral_gens(6),
    "H3": oracles.icosahedral_gens(),
}


@pytest.mark.parametrize("name", sorted(FINITE))
def test_checker_matches_oracle_permutation_models(name):
    gens = FINITE[name]
    rows = rows_from_gens(gens)
    chk = checker.Checker(rows)
    perm = checker.PermModel(gens)
    rng = random.Random(name)
    for _ in range(60):
        w = tuple(rng.randrange(len(gens)) for _ in range(rng.randint(0, 16)))
        nf = chk.nf(w)
        assert nf == perm.normal_form(w)
        assert oracles.eval_word(gens, nf) == oracles.eval_word(gens, w)


@pytest.mark.parametrize("rows", [
    [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    [[1, 6, 2], [6, 1, 3], [2, 3, 1]],
    [[1, 2, checker.INF], [2, 1, checker.INF], [checker.INF, checker.INF, 1]],
])
def test_checker_matches_oracle_braid_search(rows):
    chk = checker.Checker(rows)
    rng = random.Random(str(rows))
    for _ in range(40):
        w = tuple(rng.randrange(len(rows)) for _ in range(rng.randint(0, 10)))
        assert chk.nf(w) == tuple(oracles.oracle_reduce(rows, w))


def test_checker_rejects_wrong_answers():
    chk = checker.Checker([[1, 4, 2], [4, 1, 4], [2, 4, 1]])
    with pytest.raises(checker.CheckFailed):
        chk.expect_word((1, 0), (0, 1), "multiply")
    with pytest.raises(checker.CheckFailed):
        chk.expect_conjugator((2,), (0,), (1, 0, 1), "conj")
    chk.expect_conjugator((1,), (0,), (1, 0, 1), "conj")


def run_bench(root, *args):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py")] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    info = {}
    for ln in lines:
        if ln.startswith("input_digest"):
            parts = ln.split()
            info["input"], info["answer"] = parts[1], parts[3]
    return proc, info, lines


def copy_checkout(dst):
    for part in ("perfbench", "src", "tests"):
        shutil.copytree(ROOT / part, dst / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")


BAD_CONJUGATE = '''
_real_conjugate = conjugate


def conjugate(M, g, x, steps=DEFAULT_STEPS):
    z = _real_conjugate(M, g, x, steps)
    return Element(z.letters[1:])
'''

BAD_CONJUGATOR = '''
_real_decide = decide_conjugacy_even


def decide_conjugacy_even(M, x, y, budget=DEFAULT):
    d = _real_decide(M, x, y, budget)
    return Conjugate(Element((0,) + d.g.letters)) if isinstance(d, Conjugate) else d


def verify_decision(M, x, y, decision, budget=DEFAULT):
    return True
'''

BAD_SEPARATE = '''
_real_separate = _HANDLERS["separate"]


def _bad_separate(M, args, budget, out):
    _real_separate(M, args, budget, out)
    out[:] = [(k, "separated" if k == "verdict" else v) for k, v in out]
    return 0


_HANDLERS["separate"] = _bad_separate
'''


@pytest.mark.parametrize("workload,module,patch", [
    ("session-words", "words.py", BAD_CONJUGATE),
    ("session-conj", "evenconj.py", BAD_CONJUGATOR),
    ("cli-cold", "cli.py", BAD_SEPARATE),
])
def test_injected_wrong_answer_fails_the_run(tmp_path, workload, module, patch):
    copy_checkout(tmp_path)
    with open(tmp_path / "src" / "coxkit" / module, "a") as fh:
        fh.write(patch)
    proc, _, lines = run_bench(tmp_path, "--workload", workload, "--seed", "3",
                               "--queries", "60")
    assert proc.returncode == 1
    assert any(ln.startswith("FAIL") for ln in lines)
    assert json.loads(lines[-1])["correct"] is False


@pytest.mark.parametrize("workload", ["session-words", "session-conj", "cli-cold"])
def test_same_seed_same_digests(workload):
    a, ia, _ = run_bench(ROOT, "--workload", workload, "--seed", "5", "--queries", "25")
    b, ib, _ = run_bench(ROOT, "--workload", workload, "--seed", "5", "--queries", "25")
    c, ic, _ = run_bench(ROOT, "--workload", workload, "--seed", "6", "--queries", "25")
    assert a.returncode == b.returncode == c.returncode == 0
    assert ia == ib
    assert ia["input"] != ic["input"]


def test_traced_and_untraced_answers_agree():
    proc, info, lines = run_bench(ROOT, "--workload", "session-conj", "--seed", "7",
                                  "--trace", "1", "--queries", "40")
    assert proc.returncode == 0, proc.stderr
    _, plain, _ = run_bench(ROOT, "--workload", "session-conj", "--seed", "7",
                            "--queries", "40")
    assert info == plain
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["evenconj.decide.calls"]["value"] >= 40
    assert metrics["trace_overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, _, lines = run_bench(tmp_path, "--workload", "session-words", "--seed", "1",
                               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)
