"""Every demo runs against the current API and writes its CSVs.

Each demo module is loaded from its file and run in-process with its output
directory ``OUT`` pointed at a temporary directory, so the tracked outputs
under demos/out/ are left as they are.
"""
import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_writes_its_csvs(path, tmp_path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT = tmp_path
    demo.main()
    written = sorted(tmp_path.glob("*.csv"))
    assert written, f"{path.name} wrote no CSV"
    for csv in written:
        assert csv.stat().st_size > 0, f"{path.name} wrote an empty {csv.name}"
