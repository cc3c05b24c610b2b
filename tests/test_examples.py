"""Smoke tests for the example scripts (the documented entry points).

Only the cheaper examples are executed here (the tuning-heavy ones are
exercised indirectly by the tuner tests and the benchmark harness).
"""

import os
import pathlib
import re
import subprocess
import sys


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, timeout: int = 240, env=None) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=None if env is None else {**os.environ, **env},
    )
    assert result.returncode == 0, f"{script} failed:\n{result.stderr[-2000:]}"
    return result.stdout


def test_examples_directory_contents():
    expected = {
        "quickstart.py",
        "lower_bound_analysis.py",
        "tune_conv_layer.py",
        "end_to_end_resnet.py",
        "pebble_game_demo.py",
        "tuning_daemon_demo.py",
    }
    assert expected <= {p.name for p in EXAMPLES_DIR.glob("*.py")}


def test_lower_bound_analysis_example():
    out = _run("lower_bound_analysis.py")
    assert "lower bound" in out
    assert "greedy/bound" in out


def test_pebble_game_demo_example():
    out = _run("pebble_game_demo.py")
    assert "Direct convolution DAG" in out
    assert "Winograd DAG" in out


def test_end_to_end_resnet_example():
    out = _run("end_to_end_resnet.py")
    assert "ResNet-18" in out
    assert "speedup" in out


def test_tuning_daemon_demo_example():
    out = _run("tuning_daemon_demo.py")
    assert "re-served result bit-identical: True" in out
    assert "measurements taken by the restarted daemon: 0" in out
    assert "backoff -> success" in out
    assert "pool result bit-identical to service backend: True" in out
    # The real double-fork act only runs with --daemonize (not under test
    # runners); the default run must announce the skip, not attempt it.
    assert "daemonized process wrapper (skipped" in out


def test_tuning_service_demo_example(tmp_path):
    # The demo persists its tuning database; point it into tmp_path so the
    # run neither reads nor writes the user's default database.
    db_path = tmp_path / "tuning.json"
    out = _run("tuning_service_demo.py", env={"REPRO_TUNING_DB": str(db_path)})
    assert db_path.exists()
    measurements = dict(
        re.findall(r"(merge-at-end|streaming): PoolStats\[.* (\d+) measurements", out)
    )
    assert set(measurements) == {"merge-at-end", "streaming"}, out
    assert int(measurements["streaming"]) < int(measurements["merge-at-end"])
