import os
import subprocess
import sys
from pathlib import Path

import pytest

import rsbesov

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # each demo runs as a script, on the same package this suite imports
    env = dict(os.environ)
    src = str(Path(rsbesov.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr.decode()
