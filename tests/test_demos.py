import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout: a change to what a demo prints is a deliberate edit here
DIGESTS = {
    "explore_blocks.py": "2bda23984883089fe3e63579b03b96f73cf3044ca70565fcd9dd74199350e56c",
    "ratio_identities.py": "fc804bb586113d3a488e1a8d5a624659497fe456146895e7c3300053d485fe61",
    "witness_scan.py": "d7dddc6d93a8849f1b85d3eef0b719a4de32b6d1cf99bee39d2647c42ed2fb0b",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"MISMATCH" not in proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo]
