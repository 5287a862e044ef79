"""What a fresh interpreter imports: scipy only once a price is computed.

Each test runs in a new Python process, since this one has long since
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optstop
from optstop.cli import main

# Runs its argument's statements, then prints the scipy modules loaded.
_PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(body: str, cwd: Path) -> list[str]:
    """The scipy modules a fresh interpreter holds after running body."""
    src = str(Path(optstop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["optstop", "optstop.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert scipy_modules_after(f"import {module}", tmp_path) == []


@pytest.fixture()
def inputs(tmp_path):
    """The README's oracle tree and a 20-path paths CSV from `simulate`."""
    (tmp_path / "tree.json").write_text(
        '{"payoffs": [[0.5], [0.0, 1.2]], "transitions": [[[0.5, 0.5]]]}'
    )
    (tmp_path / "n20.json").write_text('{"n_train": 20, "model": {"horizon": 4}}')
    argv = ["simulate", "--config", str(tmp_path / "n20.json"), "--out", str(tmp_path / "sim")]
    assert main(argv) == 0
    return tmp_path


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["oracle", "--problem", "tree.json", "--out", "sol"], 0),
        (["train", "--paths", "sim/paths.csv", "--out", "fit"], 0),
        (["train", "--config", "missing.json", "--out", "fit"], 1),
        (["trace", "--trial", "1000", "--out", "trace"], 1),
    ],
    ids=["oracle", "train-paths", "missing-config", "trace-trial-outside"],
)
def test_command_that_never_prices_loads_no_scipy(argv, rc, inputs):
    body = f"from optstop.cli import main\nassert main({argv!r}) == {rc}"
    assert scipy_modules_after(body, inputs) == []


def test_price_loads_scipy_special(tmp_path):
    body = "from optstop import seller\nseller.myopic_price(0.5, 1.0)"
    assert "scipy.special" in scipy_modules_after(body, tmp_path)
