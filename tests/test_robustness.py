"""Randomized robustness properties of the file formats and the CLI.

Damaged inputs must fail with the package's own error classes, never
with a raw Python exception, and the command line must map every
outcome to exit code 0, 1 or 2.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slipstokes.cli import main
from slipstokes.errors import ParseError, VersionMismatch
from slipstokes.experiments import KINDS
from slipstokes.mesh import (TriMesh, make_disk, make_unit_square, read_mesh,
                             write_mesh)
from slipstokes.persistence import load_solution, write_solution


@st.composite
def damaged(draw, blob):
    """``blob`` truncated, or with one bit flipped or one byte replaced."""
    k = draw(st.integers(0, len(blob) - 1))
    how = draw(st.sampled_from(["truncate", "flip", "byte"]))
    if how == "truncate":
        return blob[:k]
    if how == "flip":
        byte = blob[k] ^ (1 << draw(st.integers(0, 7)))
    else:
        byte = draw(st.integers(0, 255))
    return blob[:k] + bytes([byte]) + blob[k + 1:]


def _file_bytes(write):
    """The bytes ``write(path)`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        write(path)
        return path.read_bytes()


MESH_FILES = [_file_bytes(lambda path, m=m: write_mesh(path, m))
              for m in (make_unit_square(2), make_disk(1))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MESH_FILES).flatmap(damaged))
def test_damaged_mesh_files_raise_only_parse_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.msh"
        path.write_bytes(blob)
        try:
            assert isinstance(read_mesh(path), TriMesh)
        except ParseError:
            pass


def _snapshot_files():
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sol.bin"
        write_solution(path, rng.standard_normal(6), rng.standard_normal(3),
                       {"h1_norm": 1.5, "label": "run"})
        return path.read_bytes(), Path(str(path) + ".json").read_bytes()


SNAPSHOT, SIDECAR = _snapshot_files()


@settings(max_examples=150, deadline=None)
@given(st.one_of(damaged(SNAPSHOT).map(lambda blob: (blob, SIDECAR)),
                 damaged(SIDECAR).map(lambda blob: (SNAPSHOT, blob))))
def test_damaged_snapshots_raise_only_format_errors(files):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sol.bin"
        path.write_bytes(files[0])
        Path(str(path) + ".json").write_bytes(files[1])
        try:
            _, _, diagnostics = load_solution(path)
        except (ParseError, VersionMismatch):
            return
        assert isinstance(diagnostics, dict)


NUMBERS = ["0", "-1", "0.5", "1", "2", "1e6", "1e200", "nan", "inf", "-inf", "x"]
LEVELS = [str(k) for k in range(-1, 5)]
LEVEL_LISTS = ["1,2,3", "2,3,4", "0,1,2", "3,2,1", "4", "2,2,3", "a,b"]
FLAGS = {
    "mesh": {"--domain": ["square", "disk", "hexagon"], "--level": LEVELS,
             "--radius": NUMBERS},
    "solve-stokes": {"--domain": ["square", "disk"], "--level": LEVELS,
                     "--radius": NUMBERS, "--alpha": NUMBERS,
                     "--data": ["sweep", "mms", "disk-drive",
                                "disk-compatible", "other"],
                     "--amplitude": NUMBERS, "--compat": None},
    "experiment": {"--levels": LEVEL_LISTS, "--alpha": NUMBERS,
                   "--alpha-schedule": ["1,2", "0", "1,-1", "nan", "x"],
                   "--domain": ["square", "disk"], "--amplitude": NUMBERS},
    "spectra": {"--domain": ["square", "disk"], "--levels": LEVEL_LISTS,
                "--alpha": NUMBERS},
}
FLAGS["solve-ns"] = {**FLAGS["solve-stokes"],
                     "--max-iterations": ["-1", "0", "1", "5", "x"],
                     "--tol": NUMBERS, "--damping": NUMBERS}


@st.composite
def command_lines(draw):
    """A subcommand and a random subset of its flags with drawn values;
    ``--out`` is left to the test."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "experiment":
        argv.append(draw(st.sampled_from([*KINDS, "warp_drive"])))
    flags = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        values = flags[flag]
        argv += [flag] if values is None else [flag,
                                               draw(st.sampled_from(values))]
    if "--level" not in argv and command in ("mesh", "solve-stokes",
                                             "solve-ns"):
        argv += ["--level", draw(st.sampled_from(LEVELS))]
    if "--levels" not in argv and command in ("experiment", "spectra"):
        argv += ["--levels", draw(st.sampled_from(LEVEL_LISTS))]
    return argv, draw(st.sampled_from(["new", "existing file", None]))


@settings(max_examples=60, deadline=None)
@given(command_lines())
def test_cli_exits_only_0_1_or_2(case):
    argv, out = case
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        if out == "existing file":
            target.write_text("occupied\n")
        if out is not None:
            argv = argv + ["--out", str(target)]
        assert main(argv) in (0, 1, 2)
