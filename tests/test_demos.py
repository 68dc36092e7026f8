import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout: a change to the checkers or the witness
# builders must keep these bytes, or explain the drift.  Recorded with numpy
# 2.4 on x86-64, like the report hashes in test_cli.py.
DEMO_SHA256 = {
    "01_weights_and_norms.py": "df1e081f52ea861a6451ec9d9291537391a80a7ace2e72df457f006fee7e9139",
    "02_operator_orbits.py": "598a794ed7f08c0f514b378a7e6be915a777eeb58fd62c92339eb953769ef3d4",
    "03_transitivity_check.py": "a36230e1486e67be97bdae0bb4fa50901131afed203b8aec25bc0e4ca9b8c823",
    "04_disjoint_and_semi.py": "c1b857ee8165af7bfc8e1d2d45ed8bd8d09d3593b2dcdf444eade1c44588a56e",
    "05_witness_and_oracle.py": "f4f5e8b97a88ba6a18d86599b7d49884ffef3db87e62bfc2fae2c34dafd39d3f",
}


def test_every_demo_has_a_hash():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_matches_golden_hash(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, check=True, timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[name], out.decode()
