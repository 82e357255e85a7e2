"""Shared pieces of the OANT ASCII formats.

All record files share a key/value header section terminated by a
``DATA`` line, followed by one or more fixed-width numeric blocks.
Numbers are written as Fortran-style ``E15.7`` fields, five per line,
which round-trips float64 values to 7 significant digits — the
precision the legacy Fortran carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import DataBlockError, HeaderError, MissingArtifactError

#: Component codes in pipeline order: longitudinal, transversal, vertical.
COMPONENTS: tuple[str, str, str] = ("l", "t", "v")

#: Human-readable component names keyed by code.
COMPONENT_NAMES: dict[str, str] = {
    "l": "LONGITUDINAL",
    "t": "TRANSVERSAL",
    "v": "VERTICAL",
}

_FIELD_WIDTH = 15
_PER_LINE = 5
_FMT = "%15.7E"
#: ``str.strip()`` treats the ASCII separators as whitespace; the bytes
#: parser behind NumPy's ``S`` -> float cast does not.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_SEPARATORS_AS_SPACE = bytes.maketrans(b"".join(_SEPARATORS), b" " * len(_SEPARATORS))

#: :func:`repro.observability.metrics.record_points`, bound lazily —
#: the formats package is a leaf the observability package sits above.
_record_points = None


def count_points(npts: int, process: str | None = None) -> None:
    """Credit ``npts`` time-series points to the reading pipeline process.

    No-op unless the run carries a metrics registry; the ``process``
    label defaults to the active audit scope's attribution.
    """
    global _record_points
    if _record_points is None:
        from repro.observability.metrics import record_points

        _record_points = record_points
    _record_points(npts, process)


def format_fixed_block(values: np.ndarray) -> str:
    """Render a 1-D array as fixed-width E15.7 lines, 5 values per line."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return ""
    full, rest = divmod(values.size, _PER_LINE)
    template = (_FMT * _PER_LINE + "\n") * full + (_FMT * rest + "\n" if rest else "")
    return template % tuple(values.tolist())


def _decode_canonical(lines: list[str], count: int) -> np.ndarray | None:
    """Decode a block laid out exactly as :func:`format_fixed_block` writes it.

    The canonical layout is ``count // 5`` full ASCII lines of 75
    characters plus, when ``count % 5`` is not zero, a tail line of 15
    characters per value: one run of 15-byte fields, which a single
    ``S15`` -> float cast parses as ``float(field.strip())`` would.
    NUL bytes are ruled out because the ``S`` dtype drops them from a
    field's end.  Returns ``None`` for any other layout or for a block
    the cast rejects, leaving the verdict to the per-field scan.
    """
    full, rest = divmod(count, _PER_LINE)
    if count < 0 or len(lines) != full + (rest > 0):
        return None
    if not set(map(len, lines[:full])) <= {_FIELD_WIDTH * _PER_LINE}:
        return None
    if rest and len(lines[-1]) != _FIELD_WIDTH * rest:
        return None
    try:
        raw = "".join(lines).encode("ascii")
    except UnicodeEncodeError:
        return None
    if b"\0" in raw:
        return None
    if any(sep in raw for sep in _SEPARATORS):
        raw = raw.translate(_SEPARATORS_AS_SPACE)
    try:
        return np.frombuffer(raw, f"S{_FIELD_WIDTH}").astype(float)
    except ValueError:
        return None


def parse_fixed_block(lines: list[str], count: int, *, path: str = "<memory>") -> np.ndarray:
    """Parse ``count`` fixed-width values from consumed text lines.

    ``lines`` must contain exactly the lines of one block (as produced
    by :func:`format_fixed_block`).  A block in that canonical layout
    is decoded in one vectorized cast; any other block is scanned field
    by field, which also produces the error for a block neither accepts.
    """
    decoded = _decode_canonical(lines, count)
    if decoded is not None:
        return decoded
    values: list[float] = []
    for line in lines:
        line = line.rstrip("\n")
        for start in range(0, len(line), _FIELD_WIDTH):
            fieldtxt = line[start : start + _FIELD_WIDTH].strip()
            if not fieldtxt:
                continue
            try:
                values.append(float(fieldtxt))
            except ValueError as exc:
                raise DataBlockError(f"{path}: bad numeric field {fieldtxt!r}") from exc
    if len(values) != count:
        raise DataBlockError(f"{path}: expected {count} values, found {len(values)}")
    return np.asarray(values, dtype=float)


def block_line_count(count: int) -> int:
    """Number of text lines a ``count``-value fixed block occupies."""
    return (count + _PER_LINE - 1) // _PER_LINE


@dataclass
class Header:
    """Common header of every OANT record file.

    Only ``station`` and ``dt`` are strictly required by the pipeline;
    the event fields carry provenance and are preserved verbatim by
    every processing step so downstream GEM consumers can trace records
    back to their event.
    """

    station: str
    component: str = ""
    event_id: str = ""
    origin_time: str = ""
    magnitude: float = 0.0
    dt: float = 0.0
    npts: int = 0
    units: str = "GAL"
    extra: dict[str, str] = field(default_factory=dict)

    def lines(self, kind: str) -> list[str]:
        """Render the header as key/value lines under a ``kind`` banner."""
        out = [f"OANT STRONG-MOTION {kind}"]
        out.append(f"STATION: {self.station}")
        if self.component:
            name = COMPONENT_NAMES.get(self.component, self.component.upper())
            out.append(f"COMPONENT: {self.component} {name}")
        out.append(f"EVENT: {self.event_id}")
        out.append(f"ORIGIN: {self.origin_time}")
        out.append(f"MAGNITUDE: {self.magnitude:.2f}")
        out.append(f"DT: {self.dt:.9f}")
        out.append(f"NPTS: {self.npts}")
        out.append(f"UNITS: {self.units}")
        for key, value in sorted(self.extra.items()):
            out.append(f"X-{key}: {value}")
        return out

    def copy_for(self, *, component: str | None = None, npts: int | None = None) -> "Header":
        """Clone the header, optionally retargeting component/npts."""
        return Header(
            station=self.station,
            component=self.component if component is None else component,
            event_id=self.event_id,
            origin_time=self.origin_time,
            magnitude=self.magnitude,
            dt=self.dt,
            npts=self.npts if npts is None else npts,
            units=self.units,
            extra=dict(self.extra),
        )


def parse_header(lines: list[str], kind: str, *, path: str = "<memory>") -> tuple[Header, int]:
    """Parse a header; returns (header, index of the line after ``DATA``).

    Raises :class:`HeaderError` when the banner is wrong or a required
    field is missing/unparseable.
    """
    if not lines:
        raise HeaderError(f"{path}: empty file")
    banner = lines[0].strip()
    expected = f"OANT STRONG-MOTION {kind}"
    if banner != expected:
        raise HeaderError(f"{path}: expected banner {expected!r}, got {banner!r}")
    fields: dict[str, str] = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "DATA":
            break
        if not line:
            continue
        if ":" not in line:
            raise HeaderError(f"{path}: malformed header line {line!r}")
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    else:
        raise HeaderError(f"{path}: header not terminated by a DATA line")

    def need(key: str) -> str:
        if key not in fields:
            raise HeaderError(f"{path}: missing header field {key}")
        return fields[key]

    try:
        dt = float(need("DT"))
        npts = int(need("NPTS"))
        magnitude = float(fields.get("MAGNITUDE", "0"))
    except ValueError as exc:
        raise HeaderError(f"{path}: unparseable numeric header field") from exc
    component = fields.get("COMPONENT", "").split()[0] if fields.get("COMPONENT") else ""
    extra = {
        key[2:]: value for key, value in fields.items() if key.startswith("X-")
    }
    header = Header(
        station=need("STATION"),
        component=component,
        event_id=fields.get("EVENT", ""),
        origin_time=fields.get("ORIGIN", ""),
        magnitude=magnitude,
        dt=dt,
        npts=npts,
        units=fields.get("UNITS", "GAL"),
        extra=extra,
    )
    return header, i


def as_path(path: Path | str) -> Path:
    """Coerce to :class:`Path` while preserving Path subclasses.

    Readers and writers must not rebuild incoming paths with
    ``Path(...)``: that would strip the auditing subclass the workspace
    hands out when access recording is enabled.
    """
    return path if isinstance(path, Path) else Path(path)


def read_lines(path: Path | str, *, process: str | None = None) -> list[str]:
    """Read a text file into lines, raising MissingArtifactError if absent."""
    path = as_path(path)
    if not path.exists():
        raise MissingArtifactError(str(path), process)
    return path.read_text().splitlines()
