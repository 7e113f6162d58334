"""The experiment scripts in scripts/: each runs and uses only public names."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _private_srw_imports(source: str) -> list[str]:
    """Names starting with "_" that the source imports from the srw package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "srw":
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [
                a.name
                for a in node.names
                if a.name.split(".")[0] == "srw"
                and any(part.startswith("_") for part in a.name.split("."))
            ]
    return found


def _run(*argv: str) -> subprocess.CompletedProcess:
    """Run a script with `src` on its import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_and_public_imports(script):
    assert not _private_srw_imports(script.read_text())
    proc = _run(str(script), "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_tile_random_peaks_runs_to_completion():
    script = ROOT / "scripts" / "tile_random_peaks.py"
    proc = _run(str(script), "--rank", "4", "--trials", "200", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0]
    assert first.startswith("200 peaks tiled in ")
    assert first.endswith("over rank 4 (rfull), all within fuel 10000")
