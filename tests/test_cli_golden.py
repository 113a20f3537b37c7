"""Byte-level regression tests of the coxkit/1 reports and the demo tours.

Runs the invocations of demos/cli_tour.sh, plus --verify runs of conj, pc
and separate on I2(4) and B3, of autcheck and smallwords on B~2, H3 and
A4 (the last two reach the exact finite parabolic sweep, B~2 the bounded
one) and separate --plan on B~2, B3 and B~2 x A1, through cli.main and
compares the combined
stdout and exit codes with the stored transcript tests/cli_golden.txt.
Matrix and spec files are named by placeholders, so the transcript does
not depend on where the temporary files live.  The three Python tours in
demos/ run in-process and their stdout is compared with
tests/demos_golden.txt.
"""

import runpy
from pathlib import Path

from coxkit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.txt")
DEMO_GOLDEN = Path(__file__).with_name("demos_golden.txt")
DEMOS = Path(__file__).resolve().parent.parent / "demos"
TOURS = ["tour_words.py", "tour_conjugacy.py", "tour_automorphisms.py"]

FILES = {
    "b2t.mat": "3\n1 4 2\n4 1 4\n2 4 1\n",
    "ra.mat": "3\n1 2 inf\n2 1 inf\ninf inf 1\n",
    "i24.mat": "2\n1 4\n4 1\n",
    "b3.mat": "3\n1 4 2\n4 1 3\n2 3 1\n",
    "h3.mat": "3\n1 5 2\n5 1 3\n2 3 1\n",
    "a4.mat": "4\n1 3 2 2\n3 1 3 2\n2 3 1 3\n2 2 3 1\n",
    "c2ta1.mat": "4\n1 4 2 2\n4 1 4 2\n2 4 1 2\n2 2 2 1\n",
    "swap.aut": "1 -> 2\n2 -> 1\n\n1 -> 2\n2 -> 1\n",
    "b2t.aut": "1 -> 2 1 2\n2 -> 1 2 1\n3 -> 2 3 2\n\n"
               "1 -> 2 1 2\n2 -> 1 2 1\n3 -> 1 2 3 2 1\n",
    "h3.aut": "1 -> 1\n2 -> 1 2 1\n3 -> 3\n\n1 -> 1\n2 -> 1 2 1\n3 -> 3\n",
    "a4.aut": "1 -> 4\n2 -> 3\n3 -> 2\n4 -> 1\n\n1 -> 4\n2 -> 3\n3 -> 2\n4 -> 1\n",
}

CASES = [
    # demos/cli_tour.sh
    ["classify", "b2t.mat"],
    ["reduce", "b2t.mat", "1 2 1 2 1 2 3", "--verify"],
    ["conj", "b2t.mat", "1", "2 1 2"],
    ["pc", "b2t.mat", "1 2"],
    ["retract", "b2t.mat", "1,2", "1 2 3 1 2"],
    ["separate", "ra.mat", "1", "3"],
    ["separate", "ra.mat", "1", "3", "--plan"],
    ["autcheck", "i24.mat", "swap.aut"],
    ["smallwords", "i24.mat", "swap.aut"],
    # conjugators and criterion certificates read off orbit searches
    ["conj", "b2t.mat", "1 2 1 2", "2 3 2 3", "--verify"],
    ["pc", "b2t.mat", "3 1 2 3", "--verify"],
    # certificates re-checked on a dihedral and a spherical rank-3 group
    ["conj", "i24.mat", "1", "2 1 2", "--verify"],
    ["conj", "i24.mat", "1", "2", "--verify"],
    ["pc", "i24.mat", "1 2", "--verify"],
    ["pc", "i24.mat", "2 1 2", "--verify"],
    ["separate", "i24.mat", "1", "2", "--verify"],
    ["conj", "b3.mat", "2", "3 2 3", "--verify"],
    ["conj", "b3.mat", "1", "3", "--verify"],
    ["conj", "b3.mat", "1 2", "2 3", "--verify"],
    ["conj", "b3.mat", "1", "3 2 1 2 3", "--verify"],
    ["pc", "b3.mat", "1 2 3", "--verify"],
    ["pc", "b3.mat", "2 1 2 3 2", "--verify"],
    ["separate", "b3.mat", "1", "3", "--verify"],
    ["separate", "b3.mat", "1 2", "2 3", "--verify"],
    # automorphism audits on an affine, a 120- and a 24-element group
    ["autcheck", "b2t.mat", "b2t.aut", "--verify"],
    ["smallwords", "b2t.mat", "b2t.aut", "--verify"],
    ["autcheck", "h3.mat", "h3.aut", "--verify"],
    ["smallwords", "h3.mat", "h3.aut", "--verify"],
    ["autcheck", "a4.mat", "a4.aut", "--verify"],
    ["smallwords", "a4.mat", "a4.aut", "--verify"],
    # separation plans of an affine, a spherical and a reducible group:
    # coset actions appear only for W_J of finite index
    ["separate", "b2t.mat", "1", "2 1 2", "--plan"],
    ["separate", "b3.mat", "1", "2 1 2", "--plan"],
    ["separate", "c2ta1.mat", "1", "2 1 2", "--plan"],
]


def transcript(tmp_path, capsys):
    """Run every case and render '$ coxkit ...', its stdout and exit code."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    parts = []
    for argv in CASES:
        code = main([str(tmp_path / a) if a in FILES else a for a in argv])
        shown = " ".join(repr(a) if " " in a else a for a in argv)
        parts.append("$ coxkit %s\n%sexit: %d\n" % (shown, capsys.readouterr().out, code))
    return "\n".join(parts)


def test_cli_reports_match_golden_transcript(tmp_path, capsys):
    assert transcript(tmp_path, capsys) == GOLDEN.read_text()


def demo_transcript(capsys):
    """Run each Python tour in-process and render its stdout under a header."""
    parts = []
    for name in TOURS:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
        parts.append("$ python demos/%s\n%s" % (name, capsys.readouterr().out))
    return "\n".join(parts)


def test_demo_tours_match_golden_transcript(capsys):
    assert demo_transcript(capsys) == DEMO_GOLDEN.read_text()
