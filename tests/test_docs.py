import re
from pathlib import Path

from mpcjoin.cli import FLAG_RULES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2     # its two prints


def test_readme_flag_table_is_flag_rules():
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in README.read_text().splitlines() if line.startswith("| ")]
    assert rows[0] == ["commands", "flag", "needs", "does not apply to"]

    def names(cell):
        return re.findall(r"`([^`]+)`", cell)
    documented = set()
    for cmds, flags, needs, excludes in rows[1:]:
        for cmd in FLAG_RULES if cmds == "all" else names(cmds):
            for flag in names(flags):
                documented |= {(cmd, flag, "needs", o) for o in names(needs)}
                documented |= {(cmd, flag, "excludes", o) for o in names(excludes)}
    assert documented == {
        (cmd, flag, kind, other)
        for cmd, rules in FLAG_RULES.items()
        for flag, (needs, excludes) in rules.items()
        for kind, others in (("needs", needs), ("excludes", excludes))
        for other in others}
