"""The README's Python examples and CLI lines run as written, so a renamed
or removed export or option cannot leave them stale."""

import importlib
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import types

import pytest

import renyi_bounds
from renyi_bounds.cli import _build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(float(tok) == float(tok) for tok in printed)  # numbers, no nan


def test_runtime_loads_neither_scipy_nor_mpmath(tmp_path):
    # the README promises a numpy-only runtime; scipy, hypothesis and mpmath
    # are test-only.  A fresh interpreter runs verify and fig3 through main
    code = ("import os, sys; from renyi_bounds.cli import main; "
            f"out = {str(tmp_path)!r}; "
            "codes = [main([c, '--out', os.path.join(out, c)]) for c in ('verify', 'fig3')]; "
            "print(codes, sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'hypothesis', 'mpmath'}))")
    src = str(README.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout.strip() == "[0, 0] []"


def _cli_section():
    return README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_block_runs(tmp_path):
    block = re.search(r"```sh\n(.*?)```", _cli_section(), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [argv[1:] for argv in lines if argv and argv[0] == "renyi-bounds"]
    assert lines, "the README's CLI block has no renyi-bounds line"
    for i, argv in enumerate(lines):
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        else:
            argv += ["--out", str(tmp_path / f"{i}.csv")]
        assert main(argv) == 0, argv


def test_readme_cli_flags_exist():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    options = {opt for sp in subparsers.values() for opt in sp._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _cli_section()))
    assert named and named <= options, sorted(named - options)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(renyi_bounds.__path__)))
def test_every_all_entry_resolves(module):
    # the exports are looked up by name (the benchmark's tracer does so), so a
    # stale entry must fail here
    mod = importlib.import_module(f"renyi_bounds.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_every_package_name_resolves():
    # each name the package binds is the object of that name in the module
    # that defines it, and in that module's __all__ where it has one
    for name, obj in vars(renyi_bounds).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        mod = importlib.import_module(obj.__module__)
        assert getattr(mod, name, None) is obj, name
        assert name in getattr(mod, "__all__", [name]), name
