import importlib
import os
import pathlib
import subprocess
import sys

import pytest

@pytest.mark.parametrize("name", ["sphere", "equilibria", "linstab", "solver"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"vicsekbgk.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"vicsekbgk.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from vicsekbgk.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name, unloaded", [
    ("sphere", ["equilibria", "linstab", "solver", "cli"]),
    ("equilibria", ["linstab", "solver", "cli"]),
    ("linstab", ["solver", "cli"]),
    ("solver", ["cli"]),
], ids=["sphere", "equilibria", "linstab", "solver"])
def test_importing_a_module_loads_no_other_layer(name, unloaded):
    # the package re-exports nothing, so importing one layer loads none of
    # the layers built on it
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    layers = [f"vicsekbgk.{m}" for m in unloaded]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, vicsekbgk.{name}; "
         f"print(sorted(m for m in {layers!r} if m in sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
