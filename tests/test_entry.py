"""The command line as a user meets it: a fresh interpreter per command,
through ``python -m reclaim``, and `main` leaving its host's collector
as it found it."""

import gc
import json
import os
import pathlib
import subprocess
import sys

from reclaim.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def reclaim(*argv):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "reclaim", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=False)


def test_fresh_process_round_trip(example4_path, tmp_path):
    report = tmp_path / "report.json"
    done = reclaim("solve", example4_path, "--model", "continuous", "--out", str(report))
    assert done.returncode == 0, done.stderr
    assert json.loads(report.read_text())["feasible"] is True
    for command in ("validate", "power-profile"):
        done = reclaim(command, example4_path, str(report))
        assert done.returncode == 0, done.stderr
        assert done.stdout and not done.stderr
    late = tmp_path / "late.json"
    late.write_text(json.dumps([{"id": t, "profile": {"constant": 1.0}} for t in ("T1", "T2", "T3", "T4")]))
    done = reclaim("validate", example4_path, str(late))
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["feasible"] is False


def test_main_restores_the_collector(capsys, example4_path):
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            assert main(["solve", example4_path, "--model", "continuous"]) == 0
            assert main(["solve", "missing.json", "--model", "continuous"]) == 1
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
