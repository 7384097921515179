"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs_as_written(capsys):
    # solve, then evaluate with the kernel and model objects solved with
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    price, estimate, z = (float(v) for v in capsys.readouterr().out.split())
    assert 0.9 < price < 1.0 and 0.9 < estimate < 1.0
    assert abs(z) < 3
