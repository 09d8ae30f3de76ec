import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatialfda.io
from spatialfda import (
    FunctionalSample,
    Grid,
    KernelSpec,
    ParseError,
    ProcessSpec,
    read_sample,
    sample_process,
    write_sample,
    write_table,
)


def test_roundtrip_is_bit_exact(tmp_path):
    g = Grid.gaussian(17, seed=3)
    s = sample_process(ProcessSpec(KernelSpec.gaussian_kernel()), g, 6, seed=1)
    p = tmp_path / "s.csv"
    write_sample(p, s, {"process": "gauss-kernel", "seed": "1"})
    back, meta = read_sample(p)
    assert np.array_equal(back.grid.points, g.points)
    assert np.array_equal(back.grid.weights, g.weights)
    assert np.array_equal(back.values, s.values)
    assert meta == {"process": "gauss-kernel", "seed": "1"}
    # writing the parsed sample again reproduces the file byte for byte
    p2 = tmp_path / "s2.csv"
    write_sample(p2, back, meta)
    assert p.read_bytes() == p2.read_bytes()


def test_default_weights_trapezoid(tmp_path):
    p = tmp_path / "eq.csv"
    p.write_text("0.0,0.5,1.0\n1.0,2.0,3.0\n")
    s, meta = read_sample(p)
    np.testing.assert_allclose(s.grid.weights, [0.25, 0.5, 0.25])
    assert meta == {}


def test_default_weights_nonuniform(tmp_path):
    p = tmp_path / "irr.csv"
    p.write_text("0.0,0.1,1.0,4.0\n1.0,2.0,3.0,4.0\n")
    s, _ = read_sample(p)
    np.testing.assert_allclose(s.grid.weights, [0.25] * 4)


def test_explicit_weights_row(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("# note=hand written\n0.0,1.0\n#weights,0.3,0.7\n5.0,6.0\n")
    s, meta = read_sample(p)
    np.testing.assert_allclose(s.grid.weights, [0.3, 0.7])
    assert meta == {"note": "hand written"}


def test_blank_lines_and_plain_comments_skipped(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# just a note without equals\n\n0.0,1.0\n\n1.0,2.0\n")
    s, meta = read_sample(p)
    assert s.values.shape == (1, 2)
    assert meta == {}


@pytest.mark.parametrize(
    "content,fragment,line",
    [
        ("#weights,0.5,0.5\n0.0,1.0\n1.0,2.0\n", "weights row before grid", 1),
        ("0.0,1.0\n#weights,0.5,0.5\n#weights,0.5,0.5\n1.0,2.0\n", "second weights", 3),
        ("0.0,1.0\n1.0,2.0\n#weights,0.5,0.5\n", "after curve rows", 3),
        ("0.0,1.0\n#weights,0.5\n1.0,2.0\n", "1 weights for 2 grid points", 2),
        ("0.0,1.0\n#weights,0.5,-0.5\n1.0,2.0\n", "must be positive", 2),
        ("0.5\n1.0\n", "at least 2 points", 1),
        ("0.0,1.0,0.5\n1.0,2.0,3.0\n", "strictly increasing", 1),
        ("0.0,1.0\n1.0,2.0,3.0\n", "3 cells, expected 2", 2),
        ("0.0,1.0\n1.0,oops\n", "not a number", 2),
        ("# only=metadata\n", "no grid row", 1),
        ("0.0,1.0\n", "no curve rows", 1),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, fragment, line):
    p = tmp_path / "bad.csv"
    p.write_text(content)
    with pytest.raises(ParseError) as err:
        read_sample(p)
    assert fragment in str(err.value)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


@pytest.mark.parametrize(
    "content,line",
    [
        ("0.0,1.0\n1.0,2.0\n3.0,nan\n", 3),
        ("0.0,1.0\n-inf,2.0\n", 2),
        ("0.0,inf\n1.0,2.0\n", 1),
        ("0.0,1.0\n#weights,0.5,NaN\n1.0,2.0\n", 2),
    ],
)
def test_non_finite_cells_are_rejected(tmp_path, content, line):
    p = tmp_path / "nonfinite.csv"
    p.write_text(content)
    with pytest.raises(ParseError) as err:
        read_sample(p)
    assert "not finite" in str(err.value)
    assert err.value.line == line


def test_plain_file_parses_its_curves_in_bulk(tmp_path, monkeypatch):
    g = Grid.uniform(0.0, 1.0, 12)
    s = sample_process(ProcessSpec(KernelSpec.brownian()), g, 500, seed=4)
    p = tmp_path / "plain.csv"
    write_sample(p, s, {"n": "500"})
    calls = []
    parse_row = spatialfda.io._parse_row

    def counted(cells, lineno):
        calls.append(lineno)
        return parse_row(cells, lineno)

    monkeypatch.setattr(spatialfda.io, "_parse_row", counted)
    back, _ = read_sample(p)
    assert calls == [2, 3]  # the grid and the weights row only
    assert back.values.tobytes() == s.values.tobytes()


# ---------------------------------------------------------------------------
# Properties: round trips and fuzzed files. Derandomized, no example database.

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)
EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e300, 1e300]
cell_values = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False))
# grid points stay within 1e300 so that their differences cannot overflow
grid_points = st.floats(-1e300, 1e300, allow_nan=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
metadata = st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=6),
    st.text(alphabet=string.ascii_letters + string.digits + " .:-=,#", max_size=12).map(str.strip),
    max_size=3,
)


@st.composite
def samples(draw):
    d = draw(st.integers(2, 6))
    points = sorted(draw(st.lists(grid_points, min_size=d, max_size=d, unique=True)))
    weights = draw(st.lists(positive, min_size=d, max_size=d))
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.lists(cell_values, min_size=d, max_size=d), min_size=n, max_size=n))
    return FunctionalSample(Grid.custom(points, weights), np.array(values))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(sample=samples(), meta=metadata)
def test_round_trip_is_bit_exact_for_any_finite_floats(tmp_path_factory, sample, meta):
    p = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_sample(p, sample, meta)
    back, back_meta = read_sample(p)
    assert same_bits(back.grid.points, sample.grid.points)
    assert same_bits(back.grid.weights, sample.grid.weights)
    assert same_bits(back.values, sample.values)
    assert back_meta == meta


def curve_file(path, sample, meta):
    """Lines of write_sample's file and the 1-based line of the first curve."""
    write_sample(path, sample, meta)
    return path.read_text().splitlines(), len(meta) + 3  # metadata, grid, weights


JUNK = {
    "oops": "not a number",
    "1.2.3": "not a number",
    "--1": "not a number",
    "1e": "not a number",
    "0x10": "not a number",
    "": "not a number",
    "nan": "not finite",
    "inf": "not finite",
    "-inf": "not finite",
    "1e999": "not finite",
}


@PROPERTY
@given(sample=samples(), meta=metadata, data=st.data())
def test_corrupted_curve_cell_names_its_line_and_cell(tmp_path_factory, sample, meta, data):
    p = tmp_path_factory.getbasetemp() / "corrupt.csv"
    lines, first = curve_file(p, sample, meta)
    n, d = sample.values.shape
    i = data.draw(st.integers(0, n - 1), label="row")
    cells = lines[first - 1 + i].split(",")
    kind = data.draw(st.sampled_from(["junk", "extra", "missing"]), label="kind")
    if kind == "junk":
        j = data.draw(st.integers(0, d - 1), label="cell")
        cells[j] = data.draw(st.sampled_from(sorted(JUNK)), label="junk")
        expected = f"cell {j + 1} is {JUNK[cells[j]]}"
    elif kind == "extra":
        cells.append("1.0")
        expected = f"row has {d + 1} cells, expected {d}"
    else:
        cells.pop()
        expected = f"row has {d - 1} cells, expected {d}"
    lines[first - 1 + i] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_sample(p)
    assert err.value.line == first + i
    assert expected in str(err.value)


@PROPERTY
@given(sample=samples(), meta=metadata, data=st.data())
def test_benign_insertion_reads_the_same_sample(tmp_path_factory, sample, meta, data):
    p = tmp_path_factory.getbasetemp() / "benign.csv"
    lines, first = curve_file(p, sample, meta)
    n, d = sample.values.shape
    kind = data.draw(st.sampled_from(["blank", "comment", "underscore"]), label="kind")
    want_meta = dict(meta)
    if kind == "underscore":
        # 1_0 is a float() spelling that the bulk parser does not take
        i = data.draw(st.integers(0, n - 1), label="row")
        j = data.draw(st.integers(0, d - 1), label="cell")
        values = sample.values.copy()
        values[i, j] = 10.0
        sample = FunctionalSample(sample.grid, values)
        cells = lines[first - 1 + i].split(",")
        cells[j] = "1_0"
        lines[first - 1 + i] = ",".join(cells)
    else:
        at = data.draw(st.integers(first - 1, len(lines)), label="insert at")
        lines.insert(at, "" if kind == "blank" else "# inserted=yes")
        if kind == "comment":
            want_meta["inserted"] = "yes"
    p.write_text("\n".join(lines) + "\n")
    back, back_meta = read_sample(p)
    assert same_bits(back.values, sample.values)
    assert same_bits(back.grid.points, sample.grid.points)
    assert same_bits(back.grid.weights, sample.grid.weights)
    assert back_meta == want_meta


def test_write_table(tmp_path):
    p = tmp_path / "t.csv"
    write_table(
        p,
        ["n", "median_error"],
        [(250, 0.125), (1000, 0.0625)],
        metadata={"study": "gc"},
    )
    text = p.read_text()
    assert text.splitlines()[0] == "# study=gc"
    assert text.splitlines()[1] == "n,median_error"
    assert "250,0.125" in text
    with pytest.raises(ValueError):
        write_table(p, ["a", "b"], [(1.0,)])


def test_read_accepts_scientific_notation_and_negatives(tmp_path):
    p = tmp_path / "sci.csv"
    p.write_text("0.0,1e0\n-1.5e-3,2.25\n")
    s, _ = read_sample(p)
    assert s.values[0, 0] == -1.5e-3
    assert s.values[0, 1] == 2.25
