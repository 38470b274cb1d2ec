"""README's Quickstart runs as documented, and its report columns are the CLI's."""

import math
import re
from pathlib import Path

from fyinv.cli import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name}:Quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "parameter error", "decision error", "regret",
    ]
    assert all(math.isfinite(float(line.split(":")[1])) for line in lines)


def test_readme_lists_the_report_columns():
    section = README.read_text(encoding="utf-8").split("Report columns:", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    assert tuple(block.replace(",", " ").split()) == CSV_COLUMNS
