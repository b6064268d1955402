import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import SparseSeq, serialize


def test_seq_roundtrip():
    a = SparseSeq(2, {(1, -2): 0.5 + 1j, (0, 0): -3.0})
    obj = serialize.seq_to_json(a)
    assert obj["dim"] == 2
    assert serialize.seq_from_json(obj) == a


def test_seq_from_json_rejects_a_repeated_index():
    # SparseSeq(dim, entries) adds repeats; the wire format refuses them
    obj = {"dim": 1, "entries": [[[0], 1, 0], [[0], 0.5, 0], [[1], 0.2, 0]]}
    with pytest.raises(ValueError, match=r"index \[0\] appears twice"):
        serialize.seq_from_json(obj)


def test_seq_json_shape():
    obj = serialize.seq_to_json(SparseSeq.unit((3, 4), 2.0 - 1.0j))
    assert obj == {"dim": 2, "entries": [[[3, 4], 2.0, -1.0]]}


def test_signal_roundtrip():
    obj = [[1.0, 2.0], [-0.5, 0.0], [0.0, 0.25]]
    f = serialize.signal_from_json(obj)
    assert_allclose(f, [1 + 2j, -0.5, 0.25j])
    assert [[v.real, v.imag] for v in f] == obj


def test_field_roundtrip():
    obj = [[[1.0, -1.0], [0.0, 2.0]], [[0.5, 0.0], [-3.0, 0.25]]]
    field = serialize.field_from_json(obj)
    assert_allclose(field, [[1 - 1j, 2j], [0.5, -3 + 0.25j]])
    assert [[[v.real, v.imag] for v in row] for row in field] == obj


def test_sympmat_roundtrip():
    chi = np.array([[2, 1], [1, 1]])
    obj = serialize.sympmat_to_json(chi)
    assert obj == [[2, 1], [1, 1]]
    assert np.array_equal(np.asarray(obj), chi)


def test_envelope_csv_layout():
    values = np.arange(9, dtype=float).reshape(3, 3)
    text = serialize.envelope_csv(values)
    lines = text.strip().split("\n")
    assert lines[0] == "mu_k,mu_l,value"
    assert len(lines) == 10
    # index 2 of a mod-3 lattice is the centered representative -1
    assert "(-1)" not in text
    assert lines[1] == "0,0,0.0"
    assert any(line.startswith("-1,-1,") for line in lines)


def test_field_csv_layout():
    field = np.array([[1 + 2j, 0], [0, -1j]])
    lines = serialize.field_csv(field).strip().split("\n")
    assert lines[0] == "k,l,re,im"
    assert lines[1] == "0,0,1.0,2.0"
    assert len(lines) == 5


def test_gabor_csv_layout():
    N = 2  # layout only; no modular arithmetic involved
    M = np.arange(16, dtype=complex).reshape(4, 4)
    lines = serialize.gabor_csv(M, N).strip().split("\n")
    assert lines[0] == "mu_k,mu_l,lam_k,lam_l,re,im"
    assert len(lines) == 17
    assert lines[1] == "0,0,0,0,0.0,0.0"
    assert lines[-1] == "1,1,1,1,15.0,0.0"


def test_writers_are_deterministic(rng):
    field = rng.standard_normal((4, 4))
    assert serialize.envelope_csv(field) == serialize.envelope_csv(field.copy())


def test_sampled_field_grid_csv_roundtrip(tmp_path):
    from gmlab import gaussian_field, sample_field
    from gmlab.presets import load_field_csv

    F = sample_field(gaussian_field, R=2, M=4)
    path = tmp_path / "field.csv"
    path.write_text(serialize.grid_csv(F))
    G = load_field_csv(str(path))
    assert G.R == F.R and G.M == F.M
    assert_allclose(G.values, F.values, atol=1e-15)


def test_complex_grid_csv_roundtrip(tmp_path):
    from gmlab import chirped_gaussian_field, sample_field
    from gmlab.presets import load_field_csv

    F = sample_field(chirped_gaussian_field, R=1, M=4)
    path = tmp_path / "field.csv"
    path.write_text(serialize.grid_csv(F))
    G = load_field_csv(str(path))
    assert_allclose(G.values, F.values, atol=1e-15)
