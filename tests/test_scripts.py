"""Smoke tests for the scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("p", (2, 3))
def test_monna_correspondence_rows_match(p):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "monna_correspondence.py"),
         "--prime", str(p)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("label"))
    rows = []
    for line in lines[header + 1:]:
        if not line.strip():
            break
        rows.append(line.split())
    assert rows
    assert all(row[3] == "True" for row in rows), rows
