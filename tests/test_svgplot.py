"""Generated vector plots: structure and determinism."""

import numpy as np
import pytest

from squid_horizon import svgplot


def test_basic_structure(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0.0, 1.0, 50)
    svgplot.line_plot(path, [(x, np.sin(x), "sine"), (x, x * x, "square")],
                      title="demo", xlabel="x", ylabel="y",
                      vlines=[(0.5, "mark")])
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "sine" in text and "square" in text and "mark" in text


def test_byte_deterministic(tmp_path):
    x = np.linspace(-2.0, 3.0, 33)
    y = np.exp(-x * x)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svgplot.line_plot(a, [(x, y, "g")], title="t", xlabel="x", ylabel="y")
    svgplot.line_plot(b, [(x, y, "g")], title="t", xlabel="x", ylabel="y")
    assert a.read_bytes() == b.read_bytes()


def test_flat_series_does_not_collapse(tmp_path):
    path = tmp_path / "flat.svg"
    x = np.arange(5.0)
    svgplot.line_plot(path, [(x, np.ones(5), None)], title="flat",
                      xlabel="x", ylabel="y")
    assert "<polyline" in path.read_text()


def test_empty_input_rejected(tmp_path):
    with pytest.raises(ValueError):
        svgplot.line_plot(tmp_path / "no.svg", [], title="", xlabel="",
                          ylabel="")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_series_rejected(tmp_path, bad, axis):
    # A NaN used to write "nan" coordinates into the polyline, and an
    # infinity raised OverflowError from the tick placement.
    x, y = np.arange(5.0), np.ones(5)
    (x if axis == "x" else y)[2] = bad
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match="series 'probe'"):
        svgplot.line_plot(path, [(np.arange(5.0), np.zeros(5), "ok"),
                                 (x, y, "probe")],
                          title="t", xlabel="x", ylabel="y")
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_marker_rejected(tmp_path, bad):
    with pytest.raises(ValueError, match="marker 'horizon'"):
        svgplot.line_plot(tmp_path / "bad.svg",
                          [(np.arange(5.0), np.ones(5), "ok")],
                          title="t", xlabel="x", ylabel="y",
                          vlines=[(bad, "horizon")])


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("ends, error", [
    ((1e17, 1e17), None), ((1e17, 1e17 + 16.0), None),
    ((-1.7e308, -1.7e308), None),
    ((-1e308, 1e308), "axis extent overflows"),
    ((-1.79e308, 0.0), "axis extent overflows")],
    ids=["flat-at-1e17", "one-ulp-at-1e17", "flat-near-the-largest-float",
         "spans-1e308", "padding-overflows"])
def test_edges_of_float_range(tmp_path, axis, ends, error):
    # A flat series at 1e17 used to widen by 1.0, which rounds away, and
    # fail with a math domain error; one ulp of extent there gave a tick
    # step that never advanced; an extent past the largest float raised
    # OverflowError.
    x, y = ((np.array(ends), np.arange(2.0)) if axis == "x"
            else (np.arange(2.0), np.array(ends)))
    path = tmp_path / "edge.svg"
    if error is None:
        svgplot.line_plot(path, [(x, y, "edge")], title="t", xlabel="x",
                          ylabel="y")
        assert "<polyline" in path.read_text()
    else:
        with pytest.raises(ValueError, match="%s %s" % (axis, error)):
            svgplot.line_plot(path, [(x, y, "edge")], title="t",
                              xlabel="x", ylabel="y")
        assert not path.exists()
