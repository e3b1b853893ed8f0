"""Binary and CSV field round-trips."""

import numpy as np
import pytest

from qposlab import ModelError, TorusModel
from qposlab.fields_io import read_field, write_field, write_heatmap_csv


class TestBinaryRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        t = TorusModel(2, 16)
        vals = rng.normal(size=(16, 1, 1, 16))
        p = tmp_path / "field.qpf"
        write_field(p, t, vals)
        back_torus, back = read_field(p)
        assert back_torus == t
        assert back.shape == (16, 1, 1, 16)
        assert np.array_equal(back, vals)

    def test_minus_inf_survives(self, tmp_path):
        t = TorusModel(1, 16)
        vals = np.zeros((16, 16))
        vals[3, 4] = -np.inf
        p = tmp_path / "pole.qpf"
        write_field(p, t, vals)
        _, back = read_field(p)
        assert back[3, 4] == -np.inf
        assert np.array_equal(back == -np.inf, vals == -np.inf)

    def test_torus_cross_check(self, tmp_path):
        t = TorusModel(1, 16)
        p = tmp_path / "f.qpf"
        write_field(p, t, np.zeros((16, 16)))
        with pytest.raises(ModelError):
            read_field(p, torus=TorusModel(1, 32))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.qpf"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelError):
            read_field(p)

    def test_truncated_payload(self, tmp_path):
        t = TorusModel(1, 16)
        p = tmp_path / "f.qpf"
        write_field(p, t, np.zeros((16, 16)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ModelError):
            read_field(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError):
            read_field(tmp_path / "absent.qpf")

    @pytest.mark.parametrize(
        "blob",
        [
            b"QPF1" + b"\x02\x00\x00\x00",  # cut inside n, grid, ndim
            b"QPF1" + np.array([2, 8, 4, 8], dtype="<u4").tobytes(),  # cut inside the shape
        ],
        ids=["fixed-header", "shape"],
    )
    def test_truncated_header(self, tmp_path, blob):
        p = tmp_path / "short.qpf"
        p.write_bytes(blob)
        with pytest.raises(ModelError, match="short.qpf: header has"):
            read_field(p)

    def test_axis_count_checked_on_write(self, tmp_path):
        t = TorusModel(2, 16)
        with pytest.raises(ModelError):
            write_field(tmp_path / "f.qpf", t, np.zeros((16, 16)))


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        t = TorusModel(1, 16)
        vals = rng.normal(size=(16, 1))
        p = tmp_path / "field.csv"
        write_field(p, t, vals)
        back_torus, back = read_field(p)
        assert back_torus == t
        assert np.array_equal(back, vals)  # repr() is read back bit-exact

    def test_minus_inf_survives(self, tmp_path):
        t = TorusModel(1, 16)
        vals = np.zeros((16, 16))
        vals[0, 0] = -np.inf
        p = tmp_path / "pole.csv"
        write_field(p, t, vals)
        _, back = read_field(p)
        assert back[0, 0] == -np.inf

    def test_header_required(self, tmp_path):
        p = tmp_path / "raw.csv"
        p.write_text("1.0,2.0\n")
        with pytest.raises(ModelError):
            read_field(p)

    @pytest.mark.parametrize(
        "header, lacks",
        [
            ("# qposlab-field n=2 grid", "shape"),
            ("# qposlab-field grid=8 shape=8x8", "n"),
            ("# qposlab-field n=1 shape=8x8", "grid"),
        ],
    )
    def test_header_fields_required(self, tmp_path, header, lacks):
        p = tmp_path / "field.csv"
        p.write_text(header + "\n1.0,2.0\n")
        with pytest.raises(ModelError, match=f"field.csv: CSV header lacks {lacks}"):
            read_field(p)

    @pytest.mark.parametrize(
        "text",
        [
            "# qposlab-field n=1 grid=8 shape=8x8\n1.0,2.0,3.0\n",  # three values for 64
            "# qposlab-field n=1 grid=8 shape=1x2\n1.0,abc\n",
            "# qposlab-field n=one grid=8 shape=1x1\n1.0\n",
        ],
        ids=["short", "not-a-number", "bad-header-number"],
    )
    def test_malformed_values(self, tmp_path, text):
        p = tmp_path / "field.csv"
        p.write_text(text)
        with pytest.raises(ModelError, match="field.csv: malformed CSV field"):
            read_field(p)


class TestHeatmap:
    def test_squeezes_singleton_axes(self, tmp_path):
        p = tmp_path / "map.csv"
        write_heatmap_csv(p, np.arange(6.0).reshape(3, 1, 1, 2))
        rows = p.read_text().strip().splitlines()
        assert len(rows) == 3
        assert rows[0] == "0.0,1.0"

    def test_too_many_active_axes(self, tmp_path):
        with pytest.raises(ModelError):
            write_heatmap_csv(tmp_path / "bad.csv", np.zeros((3, 3, 3, 1)))
