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


def _run(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run a script with `src` on its import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
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


RANK3_TAGS_AND_ORIGINS = """\
largest tiling: 9 cells
cells by tag:
  improper    315
  transposed  172
  natural     77
  whiskered   58
  critical    13
top cell origins:
  repeated-step                315
  critical(c31,c13)            17
  critical(a3,a3)              15
  critical(c13,c31)            15
  critical(a2,a2)              14
  natural(c31,c31)             11
  critical(a1,a1)              10
  critical(a1,c31)             9
  natural(a3,a2)               9
  natural(c31,a1)              8
"""


def test_tile_random_peaks_tags_and_origins_are_pinned():
    """Cell tags and origins as `Tiling.cells` reads them, counted over 300
    seeded rank-3 peaks: everything after the timed first line."""
    script = ROOT / "scripts" / "tile_random_peaks.py"
    proc = _run(str(script), "--rank", "3", "--trials", "300", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n", 1)[1] == RANK3_TAGS_AND_ORIGINS


@pytest.mark.parametrize(
    "flag,value,least",
    [
        ("--rank", "0", 1),
        ("--max-len", "0", 2),
        # No length-1 word holds a redex, so this cap once looped forever:
        # the short timeout turns a hang back into a failure.
        ("--max-len", "1", 2),
        ("--max-steps", "0", 1),
    ],
)
def test_tile_random_peaks_rejects_small_values(flag, value, least):
    script = ROOT / "scripts" / "tile_random_peaks.py"
    proc = _run(str(script), "--trials", "5", flag, value, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"argument {flag}: must be at least {least}, got {value}" in proc.stderr


def test_tile_random_peaks_out_of_fuel_is_one_error_line():
    """Fuel exhaustion exits 1 with one error line, as `srw complete-peak` does."""
    script = ROOT / "scripts" / "tile_random_peaks.py"
    proc = _run(str(script), "--trials", "5", "--fuel", "0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "fuel" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("tile_random_peaks.py", "--rank", "3", "--trials", "300", "--seed", "1"),
        ("draw_tiling.py", "--rank", "3", "--word", "3231", "--all-pairs"),
    ],
    ids=lambda argv: argv[0],
)
def test_scripts_take_no_variant(argv):
    """The curated cells cover rfull only, so neither script offers another
    variant: asking for one is a usage error, not a crash."""
    script, *rest = argv
    proc = _run(str(ROOT / "scripts" / script), *rest, "--variant", "rdoubleprime")
    assert proc.returncode == 2
    assert "unrecognized arguments: --variant rdoubleprime" in proc.stderr


def test_draw_tiling_writes_dot():
    script = ROOT / "scripts" / "draw_tiling.py"
    proc = _run(str(script), "--rank", "3", "--top=32:c13:-", "--left=-:b31:-")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("digraph tiling {")


def test_draw_tiling_all_pairs():
    script = ROOT / "scripts" / "draw_tiling.py"
    proc = _run(str(script), "--rank", "3", "--word", "32131", "--all-pairs")
    assert proc.returncode == 0, proc.stderr
    head, *pairs = proc.stdout.splitlines()
    assert head == "word 32131: 3 redexes"
    assert len(pairs) == 3
    assert all(" vs " in line and ": sink " in line for line in pairs)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--top=-", "--left=-:b31:-"), "error: an empty path needs a start word"),
        (("--word", "3x", "--all-pairs"), "error: not a word over 1..3: '3x'"),
        (("--top=32:c13:-", "--left=-:a1:1"), "error: peak paths must share their start word"),
    ],
    ids=["empty-top", "bad-word", "source-mismatch"],
)
def test_draw_tiling_bad_input_is_a_usage_error(argv, message):
    """Bad steps or words print one error line and exit 2, as the srw CLI does."""
    script = ROOT / "scripts" / "draw_tiling.py"
    proc = _run(str(script), "--rank", "3", *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_draw_tiling_out_of_fuel_is_one_error_line():
    """Fuel exhaustion exits 1 with one error line, as `srw complete-peak` does."""
    script = ROOT / "scripts" / "draw_tiling.py"
    proc = _run(str(script), "--top=32:c13:-", "--left=-:b31:-", "--fuel", "0", timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "fuel" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag,value,least", [("--fuel", "-1", 0), ("--rank", "0", 1)])
def test_draw_tiling_rejects_small_values(flag, value, least):
    script = ROOT / "scripts" / "draw_tiling.py"
    proc = _run(str(script), "--top=32:c13:-", "--left=-:b31:-", flag, value, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"argument {flag}: must be at least {least}, got {value}" in proc.stderr
