"""Unit tests for the PostScript writer."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.plotting.ps import PAGE_HEIGHT, PAGE_WIDTH, PostScriptCanvas


class TestCanvas:
    def test_valid_document_structure(self):
        canvas = PostScriptCanvas(title="test plot")
        canvas.line(10, 10, 100, 100)
        doc = canvas.render()
        assert doc.startswith("%!PS-Adobe-3.0\n")
        assert "%%Title: test plot" in doc
        assert doc.rstrip().endswith("%%EOF")
        assert "showpage" in doc
        assert f"%%BoundingBox: 0 0 {int(PAGE_WIDTH)} {int(PAGE_HEIGHT)}" in doc

    def test_polyline_commands(self):
        canvas = PostScriptCanvas()
        canvas.polyline([(0, 0), (10, 20), (30, 40)])
        doc = canvas.render()
        assert "0.00 0.00 moveto" in doc
        assert "10.00 20.00 lineto" in doc
        assert "30.00 40.00 lineto" in doc
        assert "stroke" in doc

    def test_single_point_polyline_is_noop(self):
        canvas = PostScriptCanvas()
        canvas.polyline([(1, 1)])
        assert "moveto" not in canvas.render()

    def test_text_escaping(self):
        canvas = PostScriptCanvas()
        canvas.text(10, 10, "a(b)c\\d")
        doc = canvas.render()
        assert r"(a\(b\)c\\d)" in doc

    def test_text_alignment_variants(self):
        canvas = PostScriptCanvas()
        canvas.text(5, 5, "L", align="left")
        canvas.text(5, 5, "C", align="center")
        canvas.text(5, 5, "R", align="right")
        doc = canvas.render()
        assert doc.count("show") >= 3

    def test_bad_alignment_rejected(self):
        canvas = PostScriptCanvas()
        with pytest.raises(ReproError):
            canvas.text(0, 0, "x", align="diagonal")

    def test_rect_fill_and_stroke(self):
        canvas = PostScriptCanvas()
        canvas.rect(0, 0, 10, 10)
        canvas.rect(0, 0, 10, 10, fill=True)
        doc = canvas.render()
        assert "closepath stroke" in doc
        assert "closepath fill" in doc

    def test_color_and_dash_commands(self):
        canvas = PostScriptCanvas()
        canvas.set_gray(0.5)
        canvas.set_rgb(1, 0, 0)
        canvas.set_dash((3, 2))
        canvas.set_dash(())
        doc = canvas.render()
        assert "0.500 setgray" in doc
        assert "1.000 0.000 0.000 setrgbcolor" in doc
        assert "[3.00 2.00] 0 setdash" in doc
        assert "[] 0 setdash" in doc

    def test_save_writes_and_finishes(self, tmp_path):
        canvas = PostScriptCanvas()
        canvas.line(0, 0, 1, 1)
        path = tmp_path / "plot.ps"
        canvas.save(path)
        assert path.read_text().startswith("%!PS")
        with pytest.raises(ReproError):
            canvas.line(0, 0, 2, 2)


def reference_polyline_text(points):
    """The per-point path text the one-call polyline must reproduce."""
    parts = ["newpath", f"{points[0][0]:.2f} {points[0][1]:.2f} moveto"]
    parts.extend(f"{x:.2f} {y:.2f} lineto" for x, y in points[1:])
    parts.append("stroke")
    return "\n".join(parts)


class TestPolylineEquality:
    @pytest.mark.parametrize("n", [2, 2001, 2021, 30_000])
    def test_matches_per_point_formatting(self, n):
        rng = np.random.default_rng(n)
        xy = np.round(rng.normal(size=(n, 2)) * 300.0, 3)  # ties at .xx5
        xy[rng.integers(0, n, size=max(1, n // 100)), 0] = np.nan
        xy[rng.integers(0, n, size=max(1, n // 100)), 1] = np.inf
        xy[rng.integers(0, n, size=max(1, n // 100)), 1] = -np.inf
        xy[0] = (-0.0, 0.005)
        points = list(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))
        canvas = PostScriptCanvas()
        canvas.polyline(points)
        reference = PostScriptCanvas()
        reference._emit(reference_polyline_text(points))
        assert canvas.render() == reference.render()

    def test_integer_points_match(self):
        points = [(0, 0), (10, 20), (30, 40)]
        canvas = PostScriptCanvas()
        canvas.polyline(points)
        reference = PostScriptCanvas()
        reference._emit(reference_polyline_text(points))
        assert canvas.render() == reference.render()
