"""Unit tests for repro.formats.common."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DataBlockError, HeaderError, MissingArtifactError
from repro.formats.common import (
    Header,
    block_line_count,
    format_fixed_block,
    parse_fixed_block,
    parse_header,
    read_lines,
)


class TestFixedBlocks:
    def test_roundtrip(self, rng):
        values = rng.normal(size=37) * 1e3
        text = format_fixed_block(values)
        parsed = parse_fixed_block(text.splitlines(), 37)
        assert np.allclose(parsed, values, rtol=1e-6)

    def test_five_per_line(self):
        text = format_fixed_block(np.arange(12.0))
        lines = text.splitlines()
        assert len(lines) == 3
        assert len(lines[0]) == 75  # 5 fields x 15 chars

    def test_empty(self):
        assert format_fixed_block(np.array([])) == ""

    def test_line_count_helper(self):
        assert block_line_count(1) == 1
        assert block_line_count(5) == 1
        assert block_line_count(6) == 2
        assert block_line_count(12) == 3

    def test_count_mismatch_raises(self):
        text = format_fixed_block(np.arange(10.0))
        with pytest.raises(DataBlockError):
            parse_fixed_block(text.splitlines(), 11)

    def test_bad_field_raises(self):
        with pytest.raises(DataBlockError):
            parse_fixed_block(["   garbage_data"], 1)

    def test_negative_and_tiny_values(self):
        values = np.array([-1.234567e-30, 9.87e20, 0.0])
        parsed = parse_fixed_block(format_fixed_block(values).splitlines(), 3)
        assert np.allclose(parsed, values, rtol=1e-6)


def reference_format(values):
    """The per-value encoder the block codec must reproduce byte for byte."""
    fields = ["%15.7E" % v for v in np.asarray(values, dtype=float).ravel()]
    return "".join("".join(fields[i : i + 5]) + "\n" for i in range(0, len(fields), 5))


def reference_parse(lines, count, *, path="<memory>"):
    """The per-field decoder whose verdicts the block codec must keep."""
    values = []
    for line in lines:
        line = line.rstrip("\n")
        for start in range(0, len(line), 15):
            fieldtxt = line[start : start + 15].strip()
            if not fieldtxt:
                continue
            try:
                values.append(float(fieldtxt))
            except ValueError as exc:
                raise DataBlockError(f"{path}: bad numeric field {fieldtxt!r}") from exc
    if len(values) != count:
        raise DataBlockError(f"{path}: expected {count} values, found {len(values)}")
    return np.asarray(values, dtype=float)


def outcome(parse, lines, count):
    """A parse's result as comparable data: value bits, or the error text."""
    try:
        return parse(lines, count, path="blk").view(np.uint64).tolist()
    except DataBlockError as exc:
        return str(exc)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


any_float64 = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)

#: Mostly the characters numbers are written with, plus the spellings
#: where NumPy's string cast and Python's ``float()`` could part ways.
field_chars = st.sampled_from(
    list(" 0123456789+-.eE_xXpPinfatyINFATY") + ["\t", "\x0b", "\x00", "\x1c", "\x1f"]
)
ascii_fields = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), min_size=15, max_size=15),
    st.text(alphabet=field_chars, min_size=15, max_size=15),
    st.sampled_from(
        ["1_000", "infinity", "-Infinity", "nan", "-nan", "0x1p3", "1e5", ".5", "5.", "1e", ""]
    ).map(lambda token: token.rjust(15)),
)


class TestBlockCodecEquality:
    @given(arrays(np.float64, st.integers(0, 23), elements=any_float64))
    @example(np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-300, -1e300, np.nan, np.inf, -np.inf]))
    @settings(max_examples=200, deadline=None)
    def test_format_matches_per_value_encoding(self, values):
        assert format_fixed_block(values) == reference_format(values)

    def test_random_bit_patterns_round_trip_bit_identically(self):
        rng = np.random.default_rng(20240501)
        values = rng.integers(0, 2**64, size=20_003, dtype=np.uint64).view(np.float64)
        lines = format_fixed_block(values).splitlines()
        assert bits(parse_fixed_block(lines, values.size)) == bits(
            reference_parse(lines, values.size)
        )

    @given(ascii_fields)
    @example("    1.5\x00\x00\x00\x00\x00\x00\x00\x00")
    @example("\x1c\x1c 1.0E+00\x1f\x1f\x1f\x1f\x1f")
    @settings(max_examples=500, deadline=None)
    def test_field_decode_agrees_with_float(self, field):
        try:
            expected = float(field.strip())
        except ValueError:
            with pytest.raises(DataBlockError):
                parse_fixed_block([field], 1)
        else:
            assert bits(parse_fixed_block([field], 1)) == bits([expected])

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda ls: [" " + ls[0][:-1]] + ls[1:], id="misaligned"),
            pytest.param(lambda ls: [ls[0] + " "] + ls[1:], id="long-line"),
            pytest.param(lambda ls: [ls[0][:-15]] + ls[1:], id="short-line"),
            pytest.param(lambda ls: ls[:-1], id="missing-line"),
            pytest.param(lambda ls: ls + [""], id="extra-blank-line"),
            pytest.param(lambda ls: [" " * 15 + ls[0][15:]] + ls[1:], id="blank-field"),
            pytest.param(lambda ls: [ls[0][:30] + " " * 15 + ls[0][45:]] + ls[1:], id="blank-mid"),
            pytest.param(lambda ls: [ls[0] + "\n"] + ls[1:], id="trailing-newline"),
            pytest.param(lambda ls: [ls[0].replace(" ", "\u00a0", 1)] + ls[1:], id="nbsp"),
            pytest.param(lambda ls: [ls[0][:-1] + "\u00e9"] + ls[1:], id="non-ascii"),
            pytest.param(lambda ls: ["\uff11".rjust(15) + ls[0][15:]] + ls[1:], id="fullwidth"),
            pytest.param(lambda ls: ["1_000".rjust(15) + ls[0][15:]] + ls[1:], id="underscore"),
            pytest.param(lambda ls: ["garbage".rjust(15) + ls[0][15:]] + ls[1:], id="garbage"),
            pytest.param(lambda ls: [ls[0][:14] + "\x00" + ls[0][15:]] + ls[1:], id="nul"),
            pytest.param(lambda ls: ["\x1c" + ls[0][1:]] + ls[1:], id="separator"),
        ],
    )
    @pytest.mark.parametrize("count", [7, 10])
    def test_odd_blocks_keep_their_verdict(self, mangle, count):
        values = np.linspace(-3.0, 4.0, count) * 1e3
        lines = mangle(format_fixed_block(values).splitlines())
        for n in (count - 1, count, count + 1):
            assert outcome(parse_fixed_block, lines, n) == outcome(reference_parse, lines, n)

    @pytest.mark.parametrize("count", [0, 1, 5, 6])
    def test_canonical_blocks_decode_like_the_scan(self, count):
        lines = format_fixed_block(np.arange(count) * 0.5 - 1.0).splitlines()
        for n in (count - 1, count, count + 1):
            assert outcome(parse_fixed_block, lines, n) == outcome(reference_parse, lines, n)


class TestHeader:
    def make(self):
        return Header(
            station="ST01",
            component="l",
            event_id="EV-X",
            origin_time="2020-01-01",
            magnitude=5.5,
            dt=0.01,
            npts=100,
            units="GAL",
            extra={"DIST-KM": "12.50"},
        )

    def test_roundtrip(self):
        header = self.make()
        lines = header.lines("V1 COMPONENT") + ["DATA"]
        parsed, idx = parse_header(lines, "V1 COMPONENT")
        assert parsed.station == "ST01"
        assert parsed.component == "l"
        assert parsed.magnitude == pytest.approx(5.5)
        assert parsed.dt == pytest.approx(0.01)
        assert parsed.npts == 100
        assert parsed.extra == {"DIST-KM": "12.50"}
        assert idx == len(lines)

    def test_wrong_banner(self):
        lines = self.make().lines("V1 COMPONENT") + ["DATA"]
        with pytest.raises(HeaderError):
            parse_header(lines, "V2 CORRECTED")

    def test_missing_data_terminator(self):
        lines = self.make().lines("V1 COMPONENT")
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_missing_required_field(self):
        lines = ["OANT STRONG-MOTION V1 COMPONENT", "STATION: X", "DATA"]
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_bad_numeric_field(self):
        lines = [
            "OANT STRONG-MOTION V1 COMPONENT",
            "STATION: X",
            "DT: not-a-number",
            "NPTS: 5",
            "DATA",
        ]
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_malformed_line(self):
        lines = ["OANT STRONG-MOTION V1 COMPONENT", "NO COLON HERE", "DATA"]
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_empty_file(self):
        with pytest.raises(HeaderError):
            parse_header([], "V1 COMPONENT")

    def test_copy_for(self):
        header = self.make()
        clone = header.copy_for(component="t", npts=42)
        assert clone.component == "t"
        assert clone.npts == 42
        assert clone.station == header.station
        clone.extra["NEW"] = "1"
        assert "NEW" not in header.extra  # deep-enough copy


class TestReadLines:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError) as err:
            read_lines(tmp_path / "nope.v1", process="P3")
        assert "P3" in str(err.value)

    def test_reads_lines(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("a\nb\n")
        assert read_lines(p) == ["a", "b"]
