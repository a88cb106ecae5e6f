import json
import os

import numpy as np
import pytest

from slipstokes.errors import DuplicateRun, ParseError, VersionMismatch
from slipstokes.persistence import (FORMAT_VERSION, MAGIC, load_solution,
                                    store_run, write_solution)


def sample_arrays(seed=0, nu=20, npr=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(nu), rng.standard_normal(npr)


class TestSnapshots:
    def test_round_trip_bitwise(self, tmp_path):
        u, p = sample_arrays()
        path = tmp_path / "sol.bin"
        write_solution(path, u, p, {"h1_norm": 1.25, "note": "x"})
        u2, p2, diag = load_solution(path)
        assert np.array_equal(u, u2)
        assert np.array_equal(p, p2)
        assert diag == {"h1_norm": 1.25, "note": "x"}

    def test_header_layout(self, tmp_path):
        u, p = sample_arrays(nu=3, npr=2)
        path = tmp_path / "sol.bin"
        write_solution(path, u, p)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert blob[4] == FORMAT_VERSION
        assert blob[5:8] == b"\x00\x00\x00"
        assert len(blob) == 16 + 8 * 5

    def test_sidecar_is_sorted_json(self, tmp_path):
        u, p = sample_arrays(nu=2, npr=1)
        path = tmp_path / "sol.bin"
        write_solution(path, u, p, {"b": 2.0, "a": 1.0})
        text = (tmp_path / "sol.bin.json").read_text(encoding="ascii")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1.0, "b": 2.0}

    def test_missing_sidecar_is_fine(self, tmp_path):
        u, p = sample_arrays(nu=2, npr=1)
        path = tmp_path / "sol.bin"
        write_solution(path, u, p)
        os.unlink(str(path) + ".json")
        _, _, diag = load_solution(path)
        assert diag == {}

    @pytest.mark.parametrize("sidecar", [b"{not json", b'{"a": "\xe9"}',
                                         b"[1, 2]"],
                             ids=["not-json", "not-ascii", "not-an-object"])
    def test_bad_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "sol.bin"
        write_solution(path, *sample_arrays(nu=2, npr=1))
        (tmp_path / "sol.bin.json").write_bytes(sidecar)
        with pytest.raises(ParseError, match="sidecar"):
            load_solution(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "sol.bin"
        write_solution(path, *sample_arrays(nu=2, npr=1))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="magic"):
            load_solution(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "sol.bin"
        write_solution(path, *sample_arrays(nu=2, npr=1))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_solution(path)

    @pytest.mark.parametrize("offset", [5, 6, 7])
    def test_nonzero_padding(self, tmp_path, offset):
        path = tmp_path / "sol.bin"
        write_solution(path, *sample_arrays(nu=2, npr=1))
        blob = bytearray(path.read_bytes())
        blob[offset] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="padding"):
            load_solution(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "sol.bin"
        write_solution(path, *sample_arrays(nu=4, npr=2))
        blob = path.read_bytes()
        path.write_bytes(blob[:10])
        with pytest.raises(ParseError, match="truncated"):
            load_solution(path)
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError, match="expected"):
            load_solution(path)

    def test_rejects_matrix_input(self, tmp_path):
        with pytest.raises(ParseError, match="one dimensional"):
            write_solution(tmp_path / "x.bin", np.zeros((2, 2)), np.zeros(2))


class TestAtomicWrite:
    def test_failed_replace_leaves_no_temporary(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        path = tmp_path / "sol.bin"
        with pytest.raises(OSError, match="replace refused"):
            write_solution(path, *sample_arrays())
        assert list(tmp_path.iterdir()) == []


class TestRegistry:
    def test_store_and_reload(self, tmp_path):
        u, p = sample_arrays(seed=1)
        entry = store_run(tmp_path, "stokes", u, p, {"h1_norm": 2.0})
        assert len(entry.run_id) == 64
        assert entry.kind == "stokes"
        assert entry.n_velocity == len(u) and entry.n_pressure == len(p)
        u2, p2, diag = load_solution(entry.path)
        assert np.array_equal(u, u2) and np.array_equal(p, p2)
        assert diag["h1_norm"] == 2.0

    def test_idempotent_restore(self, tmp_path):
        u, p = sample_arrays(seed=2)
        a = store_run(tmp_path, "stokes", u, p)
        b = store_run(tmp_path, "stokes", u, p)
        assert a == b
        registry = (tmp_path / "registry.ndjson").read_text(encoding="ascii")
        assert registry.count("\n") == 1   # one line, not two

    def test_distinct_runs_append(self, tmp_path):
        store_run(tmp_path, "stokes", *sample_arrays(seed=3))
        store_run(tmp_path, "ns", *sample_arrays(seed=4))
        lines = [json.loads(s) for s in
                 (tmp_path / "registry.ndjson").read_text().splitlines()]
        assert len(lines) == 2
        assert {rec["kind"] for rec in lines} == {"stokes", "ns"}

    def test_tampered_snapshot_raises(self, tmp_path):
        u, p = sample_arrays(seed=5)
        entry = store_run(tmp_path, "stokes", u, p)
        blob = bytearray(open(entry.path, "rb").read())
        blob[-1] ^= 0xFF
        open(entry.path, "wb").write(bytes(blob))
        with pytest.raises(DuplicateRun):
            store_run(tmp_path, "stokes", u, p)

    @pytest.mark.parametrize("record", ['"abc"', "[1, 2]", '{"path": "x"}'])
    def test_registry_line_not_an_entry(self, tmp_path, record):
        store_run(tmp_path, "stokes", *sample_arrays(seed=6))
        reg = tmp_path / "registry.ndjson"
        reg.write_text(reg.read_text() + record + "\n")
        with pytest.raises(ParseError, match="line 2"):
            store_run(tmp_path, "stokes", *sample_arrays(seed=7))

    def test_corrupt_registry_line_number(self, tmp_path):
        store_run(tmp_path, "stokes", *sample_arrays(seed=6))
        reg = tmp_path / "registry.ndjson"
        reg.write_text(reg.read_text() + "{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            store_run(tmp_path, "stokes", *sample_arrays(seed=7))
