"""Every example script imports cleanly; the observatory and drill
examples run.

The examples guard their ``main()`` behind ``__name__``, so importing a
module executes only its setup code -- a fast check that the public API
surface every example exercises still exists.  The serving, failover and
twin examples also run end to end as subprocesses, because they drive
the drill runner with arguments no other test passes.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_PATHS = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesImport:
    def test_examples_exist(self):
        assert len(EXAMPLE_PATHS) >= 11  # the ten originals + observatory

    @pytest.mark.parametrize("path", EXAMPLE_PATHS, ids=lambda p: p.stem)
    def test_imports_and_defines_main(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None)), path.name


class TestObservatoryRuns:
    def test_observatory_main_runs(self, capsys):
        module = _load(EXAMPLES_DIR / "fabric_observatory.py")
        module.main()
        out = capsys.readouterr().out
        assert "trace digest" in out
        assert "control.recover" in out
        assert "SLOs" in out


#: The examples that run end to end: (script, arguments), by test id.
DRILL_RUNS = {
    "serving_drill": ("serving_drill.py", ()),
    "failover_drill": ("failover_drill.py", ()),
    "failover_drill_2048_tenants": ("failover_drill.py", ("--tenants", "2048")),
    "twin_operations": ("twin_operations.py", ()),
}


@pytest.mark.parametrize("script,args", DRILL_RUNS.values(), ids=DRILL_RUNS.keys())
def test_drill_example_runs(script, args):
    src = str(EXAMPLES_DIR.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
