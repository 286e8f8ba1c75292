"""The README's Python examples run as written, so a renamed or removed
export cannot leave them stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(float(tok) == float(tok) for tok in printed)  # numbers, no nan
