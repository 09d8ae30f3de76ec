import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spatialfda import Curve, DDPlotData, Grid, GridMismatchError, curve_fan_svg, dd_plot_svg


def test_dd_plot_svg_deterministic_and_well_formed():
    pts = np.array([[0.1, 0.2], [0.8, 0.75], [0.4, 0.4]])
    dd = DDPlotData(pts, ("sample1", "sample2", "sample1"), {"n1": 2, "n2": 1})
    out = dd_plot_svg(dd)
    assert out == dd_plot_svg(dd)
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<circle") == 2  # sample1 markers
    assert out.count("<rect") >= 2  # frame plus sample2 markers
    assert "stroke-dasharray" in out  # the reference diagonal


def test_curve_fan_svg_layers_and_labels():
    g = Grid.uniform(0.0, 1.0, 20)
    curves = [
        ("median", Curve(g, np.zeros(20))),
        ("1:0.5", Curve(g, np.sin(2 * np.pi * g.points))),
        ("1:-0.5", Curve(g, -np.sin(2 * np.pi * g.points))),
    ]
    out = curve_fan_svg(curves)
    assert out == curve_fan_svg(curves)
    assert out.count("<polyline") >= 3
    assert "<title>median</title>" in out
    assert "<title>1:0.5</title>" in out
    # no float noise beyond the fixed three-decimal format
    assert re.search(r"\d[eE][-+]\d", out) is None


def test_curve_fan_svg_escapes_its_labels():
    g = Grid.uniform(0.0, 1.0, 5)
    root = ET.fromstring(curve_fan_svg([("a<b & c", Curve(g, np.arange(5.0)))]))
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}title")] == ["a<b & c"]


def test_curve_fan_svg_rejects_curves_on_another_grid():
    g = Grid.uniform(0.0, 1.0, 20)
    other = Grid.uniform(0.0, 2.0, 20)
    curves = [("median", Curve(g, np.zeros(20))), ("other", Curve(other, np.ones(20)))]
    with pytest.raises(GridMismatchError, match="all curves must share one grid"):
        curve_fan_svg(curves)
