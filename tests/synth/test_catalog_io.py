"""Tests for the event-catalog file format."""

import pytest

from repro.errors import SignalError
from repro.synth.events import PAPER_EVENTS, EventSpec, read_catalog, write_catalog


class TestCatalogIO:
    def test_roundtrip(self, tmp_path):
        events = [
            EventSpec("EV-A", "2024-02-01", 4.7, 1, 8_000, seed=11),
            EventSpec("EV-B", "2024-02-15", 5.9, 3, 45_000, seed=22),
        ]
        path = tmp_path / "catalog.txt"
        write_catalog(path, events)
        assert read_catalog(path) == events

    def test_paper_catalog_roundtrip(self, tmp_path):
        path = tmp_path / "paper.txt"
        write_catalog(path, PAPER_EVENTS)
        assert tuple(read_catalog(path)) == PAPER_EVENTS

    def test_missing_file(self, tmp_path):
        with pytest.raises(SignalError):
            read_catalog(tmp_path / "nope.txt")

    def test_wrong_banner(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOT A CATALOG\n")
        with pytest.raises(SignalError):
            read_catalog(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("OANT EVENT CATALOG\nEVENT only three fields\n")
        with pytest.raises(SignalError):
            read_catalog(path)

    def test_bad_numeric_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("OANT EVENT CATALOG\nEVENT E 2024-01-01 five 1 8000 1\n")
        with pytest.raises(SignalError):
            read_catalog(path)

    def test_invalid_event_spec_rejected(self, tmp_path):
        # Parses, but the spec itself is impossible (too few points).
        path = tmp_path / "bad.txt"
        path.write_text("OANT EVENT CATALOG\nEVENT E 2024-01-01 5.0 3 1000 1\n")
        with pytest.raises(SignalError):
            read_catalog(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "cat.txt"
        path.write_text(
            "OANT EVENT CATALOG\n\nEVENT E 2024-01-01 5.00 1 8000 1\n\n"
        )
        assert len(read_catalog(path)) == 1


class TestBulletinCli:
    def test_end_to_end(self, tmp_path, capsys):
        from repro.cli import main_bulletin

        events = [EventSpec("EV-CLI", "2024-03-01", 4.9, 1, 8_000, seed=5)]
        catalog = tmp_path / "catalog.txt"
        write_catalog(catalog, events)
        out = tmp_path / "bulletin.txt"
        rc = main_bulletin(
            [
                str(catalog),
                "--root",
                str(tmp_path / "run"),
                "--scale",
                "0.1",
                "--periods",
                "10",
                "--workers",
                "2",
                "--policy",
                "seq-optimized",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "EV-CLI" in capsys.readouterr().out
        assert out.read_text().startswith("Seismic activity bulletin")
