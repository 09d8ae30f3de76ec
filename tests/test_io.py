import numpy as np
import pytest

from spatialfda import (
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
