"""README's library example runs as written, against the package's exports."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_prints_the_exact_area_first(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "2759/3780"
