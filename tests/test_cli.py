"""End-to-end runs of the command line against temp files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxkit

from coxkit.cli import InputError, main, run

B2T_TEXT = "3\n1 4 2\n4 1 4\n2 4 1\n"
RA_TEXT = "3\n1 2 inf\n2 1 inf\ninf inf 1\n"
A3_TEXT = "3\n1 3 2\n3 1 3\n2 3 1\n"
I24_TEXT = "2\n1 4\n4 1\n"
SWAP_TEXT = "1 -> 2\n2 -> 1\n\n1 -> 2\n2 -> 1\n"
# conjugation by 2 1 on the (4,4,2) triangle group
INNER21_TEXT = ("1 -> 2 1 2\n2 -> 1 2 1\n3 -> 2 3 2\n\n"
                "1 -> 2 1 2\n2 -> 1 2 1\n3 -> 1 2 3 2 1\n")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("b2t", B2T_TEXT), ("ra", RA_TEXT), ("a3", A3_TEXT),
                       ("i24", I24_TEXT)):
        p = tmp_path / (name + ".cox")
        p.write_text(text)
        paths[name] = str(p)
    for name, text in (("swap", SWAP_TEXT), ("inner21", INNER21_TEXT)):
        sp = tmp_path / (name + ".spec")
        sp.write_text(text)
        paths[name] = str(sp)
    return paths


def as_dict(out):
    d = {}
    for k, v in out:
        assert k not in d or k in ()
        d[k] = v
    return d


def test_header_and_budget_echo(files):
    code, out = run(["classify", files["a3"]])
    d = as_dict(out)
    assert code == 0
    assert out[0] == ("schema", "coxkit/1")
    assert d["command"] == "classify"
    assert d["radius"] == "8"
    assert d["steps"] == "1000000"
    assert d["cosets"] == "10000"


def test_classify_affine(files):
    code, out = run(["classify", files["b2t"]])
    d = as_dict(out)
    assert code == 0
    assert d["components"] == "1 2 3"
    assert d["is_affine"] == "true"
    assert d["is_even"] == "true"
    assert d["affine_types"] != "-"
    assert d["has_442_triangle"] == "true"
    assert d["theorem12_applicable"] == "false"


def test_classify_spherical(files):
    code, out = run(["classify", files["a3"]])
    d = as_dict(out)
    assert d["is_spherical"] == "true"
    assert d["spherical_types"] == "A3"
    assert d["has_442_triangle"] == "false"
    assert d["theorem12_applicable"] == "false"
    _, out2 = run(["classify", files["i24"]])
    assert as_dict(out2)["theorem12_applicable"] == "true"


def test_reduce_with_verify(files):
    code, out = run(["reduce", files["a3"], "1 1 2 3 3 2", "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["reduced"] == "e"
    assert d["length"] == "0"
    assert d["verify"] == "ok"
    code2, out2 = run(["--verify", "reduce", files["a3"], "2 1 2"])
    assert as_dict(out2)["verify"] == "ok"


def test_parser_keeps_no_state_between_runs(files):
    """The parser is built once; flags of one run must not reach the next."""
    fresh = run(["reduce", files["b2t"], "1 2 1 2 3"])
    code, out = run(["reduce", files["b2t"], "1 2 1 2 3", "--verify", "--radius", "3"])
    assert code == 0 and ("verify", "ok") in out and ("radius", "3") in out
    again = run(["reduce", files["b2t"], "1 2 1 2 3"])
    assert again == fresh
    assert ("radius", "8") in again[1]
    assert all(key != "verify" for key, _ in again[1])


def test_conj_even_conjugate(files):
    code, out = run(["conj", files["b2t"], "1", "2 1 2", "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["verdict"] == "conjugate"
    assert d["conjugator"] == "2"
    assert d["verify"] == "ok"


def test_conj_even_separated(files):
    code, out = run(["conj", files["b2t"], "1", "3"])
    d = as_dict(out)
    assert code == 0
    assert d["verdict"] == "not-conjugate"
    assert d["certificate"] == "quotient"
    assert "image_x" in d and "image_y" in d


def test_conj_generic_fallback(files):
    code, out = run(["conj", files["a3"], "1", "2 1 2"])
    d = as_dict(out)
    assert code == 0
    assert d["verdict"] == "conjugate"
    code2, out2 = run(["conj", files["a3"], "1", "1 2"])
    d2 = as_dict(out2)
    assert code2 == 0
    assert d2["verdict"] == "not-conjugate"


def test_pc_exact(files):
    code, out = run(["pc", files["ra"], "1 2", "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["status"] == "exact"
    assert d["parabolic_J"] == "1,2"
    assert d["verify"] == "ok"


def test_retract(files):
    code, out = run(["retract", files["b2t"], "1,2", "1 3 2 3", "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["I"] == "1,2"
    assert d["result"] == "1 2"
    assert d["verify"] == "ok"
    code2, out2 = run(["retract", files["b2t"], "-", "1 2"])
    assert as_dict(out2)["result"] == "e"


def test_retract_invalid_subset(files):
    with pytest.raises(InputError):
        run(["retract", files["a3"], "1,2", "1 2 3"])


def test_separate_found(files):
    code, out = run(["separate", files["ra"], "1", "3", "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["verdict"] == "separated"
    assert "quotient" in d
    assert d["plan_1"].endswith("separates")
    assert d["verify"] == "ok"


def test_separate_not_found_lists_plan(files):
    code, out = run(["separate", files["i24"], "1", "2 1 2"])
    d = as_dict(out)
    assert code == 2
    assert d["verdict"] == "not-found"
    assert int(d["tried"]) >= 1
    assert all(("plan_%d" % (k + 1)) in d for k in range(int(d["tried"])))


def test_plan_listing(files):
    code, out = run(["--plan", "classify", files["ra"]])
    d = as_dict(out)
    assert code == 0
    assert "available_quotient_1" in d
    assert d["available_quotient_1"] == "abelianization (Z/2)^3"


def test_autcheck_swap(files):
    code, out = run(["autcheck", files["i24"], files["swap"], "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["verified"] == "yes"
    assert d["reflection"] == "yes"
    assert d["angle"] == "yes"
    assert d["parabolic"] == "yes"
    assert d["inner_by_graph"] == "yes"
    assert d["w"] == "e"
    assert d["perm"] == "2 1"
    assert d["verify"] == "ok"


def test_autcheck_inner_spec_small_radius(files, capsys):
    """A verified spec needs no bounded generation search, so no traceback."""
    assert main(["--radius", "4", "autcheck", files["b2t"], files["inner21"]]) == 0
    out = capsys.readouterr().out
    assert "inner_by_graph: yes\n" in out
    assert "w: 1 2\n" in out


def test_verify_failure_detected_under_python_O(files):
    """--verify re-checks do not rely on assert, which python -O strips."""
    src = str(Path(coxkit.__file__).resolve().parent.parent)
    code = ("import sys, coxkit.cli as c\n"
            "c.verify_decision = lambda *a: False\n"
            "sys.exit(c.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code, "conj", files["b2t"],
                           "1", "2 1 2", "--verify"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stdout == "schema: coxkit/1\nerror: verify failed: conjugacy certificate\n"
    assert proc.stderr == ""


def test_autcheck_invalid_spec(files, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("1 -> 1\n2 -> 1\n\n1 -> 1\n2 -> 1\n")
    code, out = run(["autcheck", files["i24"], str(bad)])
    d = as_dict(out)
    assert code == 1
    assert d["verified"] == "no"
    assert "reason" in d


def test_smallwords_swap(files):
    code, out = run(["smallwords", files["i24"], files["swap"]])
    d = as_dict(out)
    assert code == 0
    assert d["verdict"] == "not-pointwise-small"
    assert d["witness"] == "1"
    assert d["image"] == "2"


def test_smallwords_inner(files, tmp_path):
    sp = tmp_path / "inner.spec"
    sp.write_text("1 -> 1\n2 -> 1 2 1\n3 -> 3\n\n1 -> 1\n2 -> 1 2 1\n3 -> 3\n")
    code, out = run(["smallwords", files["a3"], str(sp), "--verify"])
    d = as_dict(out)
    assert code == 0
    assert d["verdict"] == "inner"
    assert d["g"] == "1"
    assert d["verify"] == "ok"


def test_input_errors_exit_1(files, tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.cox")]) == 1
    err = capsys.readouterr().out
    assert err.startswith("schema: coxkit/1\nerror:")
    gibberish = tmp_path / "bad.cox"
    gibberish.write_text("2\n1 4\n4\n")
    assert main(["classify", str(gibberish)]) == 1
    assert main(["reduce", files["a3"], "1 9"]) == 1
    assert main(["retract", files["a3"], "0", "1"]) == 1
    assert main(["--radius", "0", "classify", files["a3"]]) == 1


def test_budget_flags_accepted_both_sides(files):
    code, out = run(["--radius", "3", "conj", files["a3"], "1", "2"])
    assert as_dict(out)["radius"] == "3"
    code2, out2 = run(["conj", files["a3"], "1", "2", "--radius", "3"])
    assert as_dict(out2)["radius"] == "3"
    assert out == out2


def test_determinism_byte_identical(files, capsys):
    main(["conj", files["b2t"], "1 2 1 2", "2 3 2 3"])
    first = capsys.readouterr().out
    main(["conj", files["b2t"], "1 2 1 2", "2 3 2 3"])
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("schema: coxkit/1\n")


def test_unknown_exits_2(files):
    code, out = run(["--radius", "1", "--steps", "500", "conj",
                     files["ra"], "3 1 3 2 3", "2"])
    d = as_dict(out)
    if code == 2:
        assert d["verdict"] == "unknown"
    else:
        assert d["verdict"] in ("conjugate", "not-conjugate")


def test_no_matrix_outlives_a_run(tmp_path):
    """Each run parses its matrix afresh and keeps none of the matrices it
    builds (the matrix itself, sub-matrices, lowered targets), so a cold
    run stays cold.  The matrix here is used by no other test."""
    from coxkit import diagram
    path = str(tmp_path / "i26ra.cox")
    Path(path).write_text("3\n1 6 2\n6 1 inf\n2 inf 1\n")
    spec = str(tmp_path / "identity.spec")
    Path(spec).write_text("1 -> 1\n2 -> 2\n3 -> 3\n\n1 -> 1\n2 -> 2\n3 -> 3\n")
    before = set(diagram._LIVE.keys())
    for argv in (["conj", path, "1 2 1 2", "2 1 2 1", "--verify"],
                 ["separate", path, "1", "2"],
                 ["pc", path, "1 3", "--verify"],
                 ["autcheck", path, spec]):
        assert run(argv)[0] == 0
        assert set(diagram._LIVE.keys()) <= before
