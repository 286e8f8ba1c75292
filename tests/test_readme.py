"""The README's Python examples run as written, so a renamed or removed
export cannot leave them stale."""

import os
import pathlib
import re
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(float(tok) == float(tok) for tok in printed)  # numbers, no nan


def test_runtime_loads_neither_scipy_nor_mpmath():
    # the README promises a numpy-only runtime; scipy and mpmath are test-only
    code = ("import sys, renyi_bounds, renyi_bounds.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    src = str(README.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[]"
