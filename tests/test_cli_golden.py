"""Byte-level regression test of the coxkit/1 reports.

Runs the invocations of demos/cli_tour.sh, plus --verify runs of conj, pc
and separate on I2(4) and B3, through cli.main and compares the combined
stdout and exit codes with the stored transcript tests/cli_golden.txt.
Matrix and spec files are named by placeholders, so the transcript does
not depend on where the temporary files live.
"""

from pathlib import Path

from coxkit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.txt")

FILES = {
    "b2t.mat": "3\n1 4 2\n4 1 4\n2 4 1\n",
    "ra.mat": "3\n1 2 inf\n2 1 inf\ninf inf 1\n",
    "i24.mat": "2\n1 4\n4 1\n",
    "b3.mat": "3\n1 4 2\n4 1 3\n2 3 1\n",
    "swap.aut": "1 -> 2\n2 -> 1\n\n1 -> 2\n2 -> 1\n",
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
