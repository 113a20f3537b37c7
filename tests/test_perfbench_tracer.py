"""The benchmark tracer still installs on, counts and leaves the package.

perfbench/tracer.py rebinds the public functions of every layer module,
the FiniteGroup classmethods and CoxeterMatrix.__post_init__, and reads
M._cache.  Its own tests live under perfbench/, so this guard keeps a
change to those names from breaking the traced benchmark unnoticed.  It
runs in a fresh interpreter, so no matrix or model built by another test
is already cached and the counts are those of a cold start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import coxkit

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib.util, json, sys
import coxkit, coxkit.cli
from coxkit.budgets import SearchBudget
from coxkit.diagram import coxeter_matrix
from coxkit.evenconj import decide_conjugacy_even
from coxkit.words import Element, reduce

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)

FG, CM = coxkit.finite.FiniteGroup, coxkit.diagram.CoxeterMatrix
owners = [coxkit] + [getattr(coxkit, layer) for layer in tracer_mod.LAYERS] + [FG, CM]

def bindings():
    return {(i, attr): val for i, owner in enumerate(owners)
            for attr, val in list(vars(owner).items())}

before = bindings()
M = coxeter_matrix([[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 2], [2, 2, 2, 1]])
tr = tracer_mod.Tracer().install(coxkit)
try:
    rebound = sum(1 for k, v in bindings().items() if before.get(k) is not v)
    d = decide_conjugacy_even(M, Element((0,)), reduce(M, (0, 1, 2, 1, 2)),
                              SearchBudget(radius=4, steps=20000, class_cap=256, order_cap=8))
finally:
    tr.uninstall()
tr.finish()
after = bindings()
print(json.dumps({
    "decision": type(d).__name__,
    "rebound": rebound,
    "not_restored": sorted("%s.%s" % (getattr(owners[i], "__name__", i), attr)
                           for (i, attr), v in before.items() if after.get((i, attr)) is not v),
    "metrics": {k: v[0] for k, v in tr.metrics().items()},
}))
"""


def test_tracer_installs_counts_and_restores():
    src = str(Path(coxkit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "tracer.py")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["decision"] == "NotConjugate"
    assert out["rebound"] > 50
    assert out["not_restored"] == []
    m = out["metrics"]
    assert m["finite.from_matrix.calls"] >= 1
    assert m["quotients.separation_plan.calls"] >= 1
    assert m["evenconj.decide.calls"] >= 1
    assert m["words.reduce_cache_entries"] > 0
