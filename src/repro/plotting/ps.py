"""A minimal PostScript writer.

Implements just enough of the language for the pipeline's plots:
stroked polylines, filled rectangles, text with Helvetica, gray and RGB
color, and dashed lines.  Coordinates are points (1/72 inch) with the
origin at the lower-left of a US-letter page, exactly as PostScript
defines them.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from repro.errors import ReproError

PAGE_WIDTH: float = 612.0
PAGE_HEIGHT: float = 792.0


class PostScriptCanvas:
    """An in-memory PostScript page assembled command by command."""

    def __init__(self, title: str = "repro plot") -> None:
        self.title = title
        self._body: list[str] = []
        self._finished = False

    def _emit(self, command: str) -> None:
        if self._finished:
            raise ReproError("cannot draw on a finished PostScript canvas")
        self._body.append(command)

    def set_gray(self, level: float) -> None:
        """Set the stroke/fill gray level (0 = black, 1 = white)."""
        self._emit(f"{level:.3f} setgray")

    def set_rgb(self, r: float, g: float, b: float) -> None:
        """Set the stroke/fill color."""
        self._emit(f"{r:.3f} {g:.3f} {b:.3f} setrgbcolor")

    def set_line_width(self, width: float) -> None:
        """Set the stroke width in points."""
        self._emit(f"{width:.3f} setlinewidth")

    def set_dash(self, pattern: tuple[float, ...] = ()) -> None:
        """Set the dash pattern; empty pattern means solid."""
        inner = " ".join(f"{v:.2f}" for v in pattern)
        self._emit(f"[{inner}] 0 setdash")

    def polyline(self, points: list[tuple[float, float]]) -> None:
        """Stroke a connected path through the given page coordinates."""
        if len(points) < 2:
            return
        template = "newpath\n%.2f %.2f moveto\n" + "%.2f %.2f lineto\n" * (len(points) - 1)
        self._emit(template % tuple(chain.from_iterable(points)) + "stroke")

    def line(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Stroke a single segment."""
        self.polyline([(x0, y0), (x1, y1)])

    def rect(self, x: float, y: float, w: float, h: float, *, fill: bool = False) -> None:
        """Stroke (or fill) an axis-aligned rectangle."""
        op = "fill" if fill else "stroke"
        self._emit(
            f"newpath {x:.2f} {y:.2f} moveto {w:.2f} 0 rlineto "
            f"0 {h:.2f} rlineto {-w:.2f} 0 rlineto closepath {op}"
        )

    def text(
        self, x: float, y: float, string: str, *, size: float = 10.0, align: str = "left"
    ) -> None:
        """Draw text; ``align`` is left, center or right."""
        escaped = string.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")
        self._emit(f"/Helvetica findfont {size:.1f} scalefont setfont")
        if align == "left":
            self._emit(f"{x:.2f} {y:.2f} moveto ({escaped}) show")
        elif align == "center":
            self._emit(
                f"{x:.2f} {y:.2f} moveto ({escaped}) dup stringwidth pop 2 div neg 0 rmoveto show"
            )
        elif align == "right":
            self._emit(
                f"{x:.2f} {y:.2f} moveto ({escaped}) dup stringwidth pop neg 0 rmoveto show"
            )
        else:
            raise ReproError(f"unknown text alignment {align!r}")

    def render(self) -> str:
        """Assemble the complete single-page PostScript document."""
        header = [
            "%!PS-Adobe-3.0",
            f"%%Title: {self.title}",
            "%%Creator: repro.plotting",
            f"%%BoundingBox: 0 0 {int(PAGE_WIDTH)} {int(PAGE_HEIGHT)}",
            "%%Pages: 1",
            "%%EndComments",
            "%%Page: 1 1",
        ]
        footer = ["showpage", "%%EOF"]
        return "\n".join(header + self._body + footer) + "\n"

    def save(self, path: Path | str) -> None:
        """Write the document to disk and finish the canvas."""
        target = path if isinstance(path, Path) else Path(path)
        target.write_text(self.render())
        self._finished = True
