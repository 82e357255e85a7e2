"""Workspace layout and artifact naming.

A pipeline run lives in one *workspace* directory:

```
workspace/
  input/          <station>.v1 raw records (the run's input)
  work/           every intermediate and final artifact
  work/tmp/       temp folders for the concurrent-tool stages
```

All names are centralized here so no process module hard-codes a
path; the dependency analysis reasons about the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.auditing import AuditedPath, maybe_activate
from repro.observability.events import maybe_activate as events_activate
from repro.errors import PipelineError
from repro.formats.common import COMPONENTS
from repro.formats.gem import GEM_QUANTITIES, GEM_SOURCES, gem_name
from repro.formats.v1 import component_v1_name
from repro.formats.v2 import component_v2_name
from repro.formats.fourier import component_f_name
from repro.formats.response import component_r_name

FLAGS = "flags.dat"
FLAGS2 = "flags2.dat"
V1_LIST = "v1files.lst"
FILTER_PARAMS = "filter.par"
FILTER_CORRECTED = "filter_corrected.par"
MAXVALS = "maxvals.dat"
MAXVALS2 = "maxvals2.dat"
ACCGRAPH_META = "accgraph.meta"
FOURIER_META = "fourier.meta"
RESPONSE_META = "response.meta"
FOURIERGRAPH_META = "fouriergraph.meta"
RESPONSEGRAPH_META = "responsegraph.meta"


@dataclass(frozen=True)
class Workspace:
    """Path helper for one pipeline run."""

    root: Path

    def __init__(self, root: Path | str) -> None:
        object.__setattr__(self, "root", Path(root))
        # Runs with a .audit/ marker record every file access; workers
        # rebuilding Workspace(root) re-detect the marker, so auditing
        # survives the process backend without any argument plumbing.
        object.__setattr__(self, "_audited", maybe_activate(self.root))
        # The live event bus re-activates the same way off its own
        # .events/ marker (see repro.observability.events).
        events_activate(self.root)

    def _wrap(self, path: Path) -> Path:
        return AuditedPath(path) if self._audited else path

    @property
    def input_dir(self) -> Path:
        """Directory holding the raw ``<station>.v1`` inputs."""
        return self._wrap(self.root / "input")

    @property
    def work_dir(self) -> Path:
        """Directory holding every produced artifact."""
        return self._wrap(self.root / "work")

    @property
    def tmp_dir(self) -> Path:
        """Parent of the per-instance temp folders (stages IV/V/VIII)."""
        return self.work_dir / "tmp"

    def create(self) -> "Workspace":
        """Materialize the directory skeleton (idempotent)."""
        self.input_dir.mkdir(parents=True, exist_ok=True)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return self

    def require_input(self) -> None:
        """Raise unless the input directory exists and has V1 files."""
        if not self.input_dir.is_dir():
            raise PipelineError(f"workspace {self.root} has no input/ directory")
        if not any(self.input_dir.glob("*.v1")):
            raise PipelineError(f"workspace {self.root} has no .v1 input files")

    # -- canonical artifact paths -------------------------------------

    def work(self, name: str) -> Path:
        """Path of a named artifact inside work/."""
        return self.work_dir / name

    def raw_v1(self, station: str) -> Path:
        """Raw input record of one station."""
        return self.input_dir / f"{station}.v1"

    def component_v1(self, station: str, comp: str) -> Path:
        """Separated per-component raw record (P3/P12 output)."""
        return self.work_dir / component_v1_name(station, comp)

    def component_v2(self, station: str, comp: str) -> Path:
        """Corrected record (P4 then P13 output)."""
        return self.work_dir / component_v2_name(station, comp)

    def component_f(self, station: str, comp: str) -> Path:
        """Fourier spectra file (P7 output)."""
        return self.work_dir / component_f_name(station, comp)

    def component_r(self, station: str, comp: str) -> Path:
        """Response spectra file (P16 output)."""
        return self.work_dir / component_r_name(station, comp)

    def gem(self, station: str, comp: str, source: str, quantity: str) -> Path:
        """One GEM series file (P19 output)."""
        return self.work_dir / gem_name(station, comp, source, quantity)

    def plot_accelerograph(self, station: str) -> Path:
        """Accelerograph plot (P6/P15 output)."""
        return self.work_dir / f"{station}.ps"

    def plot_fourier(self, station: str) -> Path:
        """Fourier-spectrum plot (P9 output)."""
        return self.work_dir / f"{station}f.ps"

    def plot_response(self, station: str) -> Path:
        """Response-spectrum plot (P18 output)."""
        return self.work_dir / f"{station}r.ps"

    # -- inventories ---------------------------------------------------

    def input_stations(self) -> list[str]:
        """Station codes present in input/, sorted."""
        return sorted(p.stem for p in self.input_dir.glob("*.v1"))

    def artifact_paths(self, identity: str, stations: list[str]) -> list[Path]:
        """Concrete files behind one declared artifact identity.

        This is the bridge between the registry's abstract read/write
        declarations and the filesystem — used by the dependency-aware
        incremental runner to fingerprint a process's actual inputs.
        """
        simple = {
            "flags": [self.work(FLAGS)],
            "flags2": [self.work(FLAGS2)],
            "v1_list": [self.work(V1_LIST)],
            "filter_params": [self.work(FILTER_PARAMS)],
            "filter_corrected": [self.work(FILTER_CORRECTED)],
            "maxvals": [self.work(MAXVALS)],
            "maxvals2": [self.work(MAXVALS2)],
            "acc_meta": [self.work(ACCGRAPH_META)],
            "fourier_meta": [self.work(FOURIER_META)],
            "response_meta": [self.work(RESPONSE_META)],
            "fouriergraph_meta": [self.work(FOURIERGRAPH_META)],
            "responsegraph_meta": [self.work(RESPONSEGRAPH_META)],
        }
        if identity in simple:
            return simple[identity]
        if identity == "raw_v1":
            return [self.raw_v1(s) for s in stations]
        per_comp = {
            "comp_v1": self.component_v1,
            "comp_v2": self.component_v2,
            "comp_f": self.component_f,
            "comp_r": self.component_r,
        }
        if identity in per_comp:
            return [per_comp[identity](s, c) for s in stations for c in COMPONENTS]
        per_station = {
            "plot_acc": self.plot_accelerograph,
            "plot_fourier": self.plot_fourier,
            "plot_response": self.plot_response,
        }
        if identity in per_station:
            return [per_station[identity](s) for s in stations]
        if identity == "gem":
            return [
                self.gem(s, c, source, quantity)
                for s in stations
                for c in COMPONENTS
                for source in GEM_SOURCES
                for quantity in GEM_QUANTITIES
            ]
        raise PipelineError(f"unknown artifact identity {identity!r}")

    def final_artifact_names(self, stations: list[str]) -> list[str]:
        """Every artifact name a complete run must produce.

        Used by tests to assert every policy agrees on both
        the inventory and the bytes.
        """
        names = [
            FLAGS,
            FLAGS2,
            V1_LIST,
            FILTER_PARAMS,
            FILTER_CORRECTED,
            MAXVALS,
            MAXVALS2,
            ACCGRAPH_META,
            FOURIER_META,
            RESPONSE_META,
            FOURIERGRAPH_META,
            RESPONSEGRAPH_META,
        ]
        for station in stations:
            names.append(f"{station}.ps")
            names.append(f"{station}f.ps")
            names.append(f"{station}r.ps")
            for comp in COMPONENTS:
                names.append(component_v1_name(station, comp))
                names.append(component_v2_name(station, comp))
                names.append(component_f_name(station, comp))
                names.append(component_r_name(station, comp))
                for source in GEM_SOURCES:
                    for quantity in GEM_QUANTITIES:
                        names.append(gem_name(station, comp, source, quantity))
        return sorted(names)
