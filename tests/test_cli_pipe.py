"""The CLI when its reader goes away (``python -m repro models … | head``)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.cli import EXIT_BROKEN_PIPE

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_closed_pipe_exits_quietly():
    # 16 atoms: 65,535 model lines, far more than a pipe buffer holds,
    # so the listing is still being written when the reader leaves.
    formula = " | ".join("abcdefghijklmnop")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "models", formula],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert process.stdout.readline().startswith(b"65535 model(s)")
    process.stdout.close()
    stderr = process.stderr.read().decode()
    process.stderr.close()
    assert process.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert "Traceback" not in stderr, stderr
