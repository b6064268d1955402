import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmlab import SparseSeq, serialize
from gmlab._lattice import centered


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
    lines = "".join(serialize.field_csv(field)).strip().split("\n")
    assert lines[0] == "k,l,re,im"
    assert lines[1] == "0,0,1.0,2.0"
    assert len(lines) == 5


def test_gabor_csv_layout():
    N = 2  # layout only; no modular arithmetic involved
    M = np.arange(16, dtype=complex).reshape(4, 4)
    lines = "".join(serialize.gabor_csv(M, N)).strip().split("\n")
    assert lines[0] == "mu_k,mu_l,lam_k,lam_l,re,im"
    assert len(lines) == 17
    assert lines[1] == "0,0,0,0,0.0,0.0"
    assert lines[-1] == "1,1,1,1,15.0,0.0"


def test_writers_are_deterministic(rng):
    field = rng.standard_normal((4, 4))
    assert serialize.envelope_csv(field) == serialize.envelope_csv(field.copy())


def grid_csv(F) -> str:
    """Fixture writer: CSV of a SampledField with columns (x, y, value), the
    layout load_field_csv reads; complex values in Python's complex repr so
    they round-trip."""
    ax = F.axis()
    lines = ["x,y,value"]
    for i, x in enumerate(ax):
        for j, y in enumerate(ax):
            v = F.values[i, j]
            text = repr(float(v)) if not np.iscomplexobj(F.values) else repr(complex(v))
            lines.append(f"{float(x)!r},{float(y)!r},{text}")
    return "\n".join(lines) + "\n"


def test_sampled_field_grid_csv_roundtrip(tmp_path):
    from gmlab import gaussian_field, sample_field
    from gmlab.presets import load_field_csv

    F = sample_field(gaussian_field, R=2, M=4)
    path = tmp_path / "field.csv"
    path.write_text(grid_csv(F))
    G = load_field_csv(str(path))
    assert G.R == F.R and G.M == F.M
    assert_allclose(G.values, F.values, atol=1e-15)


def test_complex_grid_csv_roundtrip(tmp_path):
    from gmlab import chirped_gaussian_field, sample_field
    from gmlab.presets import load_field_csv

    F = sample_field(chirped_gaussian_field, R=1, M=4)
    path = tmp_path / "field.csv"
    path.write_text(grid_csv(F))
    G = load_field_csv(str(path))
    assert_allclose(G.values, F.values, atol=1e-15)


@pytest.mark.parametrize(
    "value, kind, expected",
    [(3, int, 3), (7.0, int, 7), (2, float, 2.0), (-0.0, float, -0.0), (10**300, float, 1e300)],
)
def test_number_accepts_finite_reals(value, kind, expected):
    got = serialize.number(value, "x", kind)
    assert got == expected and type(got) is kind


@pytest.mark.parametrize(
    "value, kind",
    [(True, int), (False, float), ("1", float), (None, int), ([1], int), (7.5, int),
     (float("nan"), float), (float("inf"), int), (10**400, float), (10**400, int), (2**63, int)],
)
def test_number_rejects_everything_else(value, kind):
    with pytest.raises(ValueError, match="x must be a finite (int64|float), got "):
        serialize.number(value, "x", kind)


def test_pair_reader_keeps_signed_zeros():
    f = serialize.signal_from_json([[-0.0, 0.0], [0.0, -0.0], [1, -2]], 3)
    assert np.array_equal(np.signbit(f.real), [True, False, False])
    assert np.array_equal(np.signbit(f.imag), [False, True, True])


@pytest.mark.parametrize(
    "obj",
    [[1, 2, 3], [["a", "b"]] * 3, [[True, 0]] * 3, [[1, 2]] * 2, [[1, 2, 3]] * 3,
     [[1, 2], [3, 4], [5]], [[[1, 2]]] * 3, {"re": 1}, "[[1, 2]]", [[1, None]] * 3],
)
def test_pair_reader_rejects_bad_shapes_and_items(obj):
    with pytest.raises(ValueError, match=r"window must be an array of \[re, im\] number pairs"):
        serialize.signal_from_json(obj, 3, "window")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400])
def test_pair_reader_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        serialize.field_from_json([[[0, 0], [bad, 0]], [[0, 0], [0, 0]]], 2)


def test_field_reader_checks_the_shape():
    with pytest.raises(ValueError, match=r"shape \(3, 3, 2\)"):
        serialize.field_from_json([[[0, 0]] * 3] * 2, 3)
    assert serialize.field_from_json([[[0, 0]] * 3] * 2).shape == (2, 3)


# The per-cell writers the row-at-a-time ones replaced: one numpy scalar and
# one Python string per cell.
def per_cell_envelope_csv(values):
    N = values.shape[0]
    lines = ["mu_k,mu_l,value"]
    for k in range(N):
        for l in range(N):
            lines.append(f"{int(centered(k, N))},{int(centered(l, N))},{repr(float(values[k, l]))}")
    return "\n".join(lines) + "\n"


def per_cell_field_csv(field):
    N = field.shape[0]
    lines = ["k,l,re,im"]
    for k in range(N):
        for l in range(N):
            v = field[k, l]
            lines.append(f"{k},{l},{repr(float(v.real))},{repr(float(v.imag))}")
    return "\n".join(lines) + "\n"


def per_cell_gabor_csv(M, N):
    lines = ["mu_k,mu_l,lam_k,lam_l,re,im"]
    for row in range(N * N):
        for col in range(N * N):
            v = M[row, col]
            lines.append(
                f"{row // N},{row % N},{col // N},{col % N},"
                f"{repr(float(v.real))},{repr(float(v.imag))}"
            )
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1, 1.0, 1e16, 1e-5, 123456.789]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 6])
def test_row_writers_match_per_cell_writers(rng, N):
    M = rng.standard_normal((N * N, N * N)) + 1j * rng.standard_normal((N * N, N * N))
    M *= 10.0 ** rng.integers(-300, 300, M.shape)
    flat = M.reshape(-1)
    edges = np.array(EDGE_VALUES)
    n = min(flat.size, edges.size)
    flat[:n] = edges[:n] + 1j * edges[::-1][:n]
    field = M[:N, :N]
    assert "".join(serialize.gabor_csv(M, N)) == per_cell_gabor_csv(M, N)
    assert "".join(serialize.field_csv(field)) == per_cell_field_csv(field)
    assert serialize.envelope_csv(np.abs(field)) == per_cell_envelope_csv(np.abs(field))
    assert serialize.envelope_csv(field.real) == per_cell_envelope_csv(field.real)


def test_complex_writers_yield_the_header_then_one_block_per_row(rng):
    N = 3
    M = rng.standard_normal((N * N, N * N)) + 0j
    for blocks, rows, header in [
        (serialize.field_csv(M[:N, :N]), N, "k,l,re,im\n"),
        (serialize.gabor_csv(M, N), N * N, "mu_k,mu_l,lam_k,lam_l,re,im\n"),
    ]:
        blocks = list(blocks)
        assert blocks[0] == header and len(blocks) == 1 + rows
        assert all(b.endswith("\n") and b.count("\n") == rows for b in blocks[1:])
