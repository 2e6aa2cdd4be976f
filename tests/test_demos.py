import os

import pytest

from test_cli import run_process

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs_cleanly(name):
    proc = run_process([os.path.join(DEMOS, name)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
