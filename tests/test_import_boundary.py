"""Import-cost boundaries of the public package."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_loads_no_bench_module():
    # The measurement harness is imported lazily by the CLIs that need
    # it; a plain ``import repro`` must not pay for it.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules "
        "if m == 'repro.bench' or m.startswith('repro.bench.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
