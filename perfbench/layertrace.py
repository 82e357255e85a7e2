"""Outside-in layer tracing: time calls into each layer's public functions.

Nothing in the program changes.  :func:`install` replaces every module
binding of each traced entry point (and the process registry's run
callables) with a timing wrapper, and swaps the parallel runtime's
process-pool class for a subclass that counts pool starts and times
each work item inside the worker.  Pool workers are forked from the
traced main process, so they inherit the wrappers; after a fork each process
keeps its own counters, and workers write theirs to
``<out_dir>/<pid>-<token>.json`` after every work item.
:meth:`Recorder.collect` merges the main process's counters with every
worker file.

Each wrapped call is a span with a *kind* (``formats.read``,
``core.P16``, ...) whose first segment is its *layer*.  Per kind the
recorder keeps the call count, the self time (duration minus the
durations of direct child spans), and the inclusive time of calls not
nested in a call of the same kind; per layer, the inclusive time of
calls not nested in the same layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import uuid
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable

_FORMATS_READ = {
    "repro.formats.v1": ("read_v1", "read_component_v1"),
    "repro.formats.v2": ("read_v2",),
    "repro.formats.fourier": ("read_fourier",),
    "repro.formats.response": ("read_response",),
    "repro.formats.gem": ("read_gem",),
    "repro.formats.params": ("read_filter_params",),
    "repro.formats.filelist": ("read_filelist", "read_metadata"),
}
_FORMATS_WRITE = {
    "repro.formats.v1": ("write_v1", "write_component_v1"),
    "repro.formats.v2": ("write_v2",),
    "repro.formats.fourier": ("write_fourier",),
    "repro.formats.response": ("write_response",),
    "repro.formats.gem": ("write_gem",),
    "repro.formats.params": ("write_filter_params",),
    "repro.formats.filelist": ("write_filelist", "write_metadata"),
}
#: (module, attribute, kind) of the other traced entry points.
_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.formats.common", "parse_fixed_block", "formats.codec"),
    ("repro.formats.common", "format_fixed_block", "formats.codec"),
    ("repro.formats.common", "parse_header", "formats.codec"),
    ("repro.dsp.detrend", "baseline_correct", "dsp.call"),
    ("repro.dsp.fir", "design_bandpass", "dsp.call"),
    ("repro.dsp.fir", "fir_filter", "dsp.call"),
    ("repro.dsp.integrate", "acceleration_to_motion", "dsp.call"),
    ("repro.dsp.peak", "peak_ground_motion", "dsp.call"),
    ("repro.spectra.response", "response_spectrum", "spectra.call"),
    ("repro.spectra.fourier", "motion_fourier_spectra", "spectra.call"),
    ("repro.spectra.inflection", "find_inflection_point", "spectra.call"),
    ("repro.spectra.inflection", "corners_from_inflection", "spectra.call"),
    ("repro.plotting.seismo", "plot_accelerograph", "plotting.plot"),
    ("repro.plotting.seismo", "plot_fourier_spectrum", "plotting.plot"),
    ("repro.plotting.seismo", "plot_response_spectrum", "plotting.plot"),
    ("repro.plotting.charts", "LineChart.draw", "plotting.draw"),
    ("repro.plotting.ps", "PostScriptCanvas.render", "plotting.draw"),
    ("repro.core.tempfolders", "run_staged_instance", "core.tempfolder"),
    ("repro.engine.executor", "Engine.execute", "engine.execute"),
    ("repro.engine.executor", "Engine._run_region", "engine.region"),
    ("repro.parallel.omp", "parallel_for", "parallel.loop"),
    ("repro.parallel.omp", "TaskGroup.__enter__", "parallel.wait"),
    ("repro.parallel.omp", "TaskGroup.task", "parallel.task"),
    ("repro.parallel.omp", "TaskGroup.taskwait", "parallel.wait"),
    ("repro.parallel.omp", "TaskGroup.__exit__", "parallel.wait"),
    ("repro.resilience.runtime", "active_runtime", "resilience.lookup"),
    ("repro.resilience.runtime", "runtime_for", "resilience.lookup"),
    ("repro.resilience.runtime", "_record_retry", "resilience.retry"),
    ("repro.resilience.runtime", "_record_quarantine", "resilience.quarantine"),
    ("repro.observability.events", "emit", "observability.emit"),
    ("repro.observability.events", "emit_channel", "observability.emit"),
)
#: Engine methods that run one process as a loop or temp-folder region;
#: their ``pid`` argument names the process.
_PROCESS_METHODS = ("_loop_member", "_temp_folder_member")

#: The recorder of this process while tracing is installed.  Wrappers
#: and forked pool workers find it here.
_ACTIVE: "Recorder | None" = None
_FORK_HOOK_REGISTERED = False


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _read_extra(stats, args, kwargs, result) -> None:
    stats["formats.read#bytes"] += _file_size(args[0] if args else kwargs.get("path"))


def _write_extra(stats, args, kwargs, result) -> None:
    stats["formats.write#bytes"] += _file_size(args[0] if args else kwargs.get("path"))


def _plot_extra(stats, args, kwargs, result) -> None:
    stats["plotting.plot#bytes"] += _file_size(args[0] if args else kwargs.get("path"))


def _codec_extra(stats, args, kwargs, result) -> None:
    # Values the fixed-width block codec encoded (format_fixed_block
    # returns text) or decoded (parse_fixed_block returns an array);
    # parse_header returns a tuple and moves no data points.
    import numpy as np

    if isinstance(result, str):
        stats["formats.codec#points"] += int(np.size(args[0]))
    elif isinstance(result, np.ndarray):
        stats["formats.codec#points"] += int(result.size)


def _spectra_extra(stats, args, kwargs, result) -> None:
    # response_spectrum(acc, dt, config): points x periods x dampings.
    if not hasattr(result, "sa"):
        return
    import numpy as np

    from repro.spectra.response import ResponseSpectrumConfig

    config = args[2] if len(args) > 2 else kwargs.get("config")
    if config is None:
        config = ResponseSpectrumConfig()
    stats["spectra.call#oscillator_steps"] += int(np.size(args[0])) * config.combos


_EXTRAS: dict[str, Callable] = {
    "formats.read": _read_extra,
    "formats.write": _write_extra,
    "formats.codec": _codec_extra,
    "plotting.plot": _plot_extra,
    "spectra.call": _spectra_extra,
}


class Recorder:
    """Per-process span counters plus the worker-file merge."""

    def __init__(self, out_dir: Path | str) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.lock = threading.Lock()
        self.local = threading.local()
        self.token = uuid.uuid4().hex[:8]

    def reset_after_fork(self) -> None:
        """A forked child starts with empty counters and no open spans."""
        self.stats = defaultdict(float)
        self.lock = threading.Lock()
        self.local = threading.local()
        self.token = uuid.uuid4().hex[:8]

    def thread_state(self) -> tuple[list, defaultdict]:
        local = self.local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], defaultdict(int)
            return local.stack, local.depth

    def add(self, key: str, value: float) -> None:
        with self.lock:
            self.stats[key] += value

    def flush(self) -> None:
        """Write this (worker) process's counters to its own file."""
        path = self.out_dir / f"{os.getpid()}-{self.token}.json"
        tmp = path.with_suffix(".tmp")
        with self.lock:
            tmp.write_text(json.dumps(self.stats))
        os.replace(tmp, path)

    def collect(self) -> dict[str, float]:
        """This process's counters plus every worker file, summed by key."""
        merged: defaultdict[str, float] = defaultdict(float)
        with self.lock:
            for key, value in self.stats.items():
                merged[key] += value
        for path in sorted(self.out_dir.glob("*.json")):
            for key, value in json.loads(path.read_text()).items():
                merged["worker:" + key] += value
                merged[key] += value
        return dict(merged)


def _wrap(fn: Callable, kind: str | Callable[[tuple], str]) -> Callable:
    """A timing wrapper recording one span of ``kind`` per call."""
    fixed = kind if isinstance(kind, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _ACTIVE
        if rec is None:
            return fn(*args, **kwargs)
        span_kind = fixed if fixed is not None else kind(args)
        layer = span_kind.split(".", 1)[0]
        stack, depth = rec.thread_state()
        outer_layer = depth[layer] == 0
        outer_kind = depth[span_kind] == 0
        depth[layer] += 1
        depth[span_kind] += 1
        frame = [0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            depth[layer] -= 1
            depth[span_kind] -= 1
            if stack:
                stack[-1][0] += duration
            with rec.lock:
                stats = rec.stats
                stats[span_kind + "#calls"] += 1
                stats[span_kind + "#self"] += duration - frame[0]
                if outer_kind:
                    stats[span_kind + "#incl"] += duration
                if outer_layer:
                    stats[span_kind + "#top"] += duration
                    stats[layer + "#incl"] += duration
        extra = _EXTRAS.get(span_kind)
        if extra is not None:
            with rec.lock:
                extra(rec.stats, args, kwargs, result)
        return result

    return wrapper


def _busy_call(fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """Run one pool work item, timing it as worker busy time."""
    rec = _ACTIVE
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        if rec is not None:
            rec.add("parallel.busy#s", time.perf_counter() - t0)
            rec.add("parallel.busy#items", 1)
            rec.flush()


class TracedProcessPool(ProcessPoolExecutor):
    """Counts pool starts, times worker forks, and times work items."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        t0 = time.perf_counter()
        super().__init__(*args, **kwargs)
        if _ACTIVE is not None:
            _ACTIVE.add("parallel.pool#starts", 1)
            _ACTIVE.add("parallel.pool#start_s", time.perf_counter() - t0)

    def _spawn_process(self) -> None:
        t0 = time.perf_counter()
        super()._spawn_process()
        if _ACTIVE is not None:
            _ACTIVE.add("parallel.pool#start_s", time.perf_counter() - t0)

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(_busy_call, fn, *args, **kwargs)


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.reset_after_fork()


class _Patches:
    """Every binding replaced by :func:`install`, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.undo: list[Callable[[], None]] = []

    def set_attr(self, owner: Any, name: str, value: Any) -> None:
        # object.__setattr__ also reaches frozen dataclasses (the
        # process registry's specs); classes need type.__setattr__.
        setter = setattr if isinstance(owner, type) else object.__setattr__
        old = getattr(owner, name)
        setter(owner, name, value)
        self.undo.append(lambda: setter(owner, name, old))

    def rebind_modules(self, original: Any, replacement: Any) -> int:
        """Point every ``repro`` module attribute bound to ``original`` at
        ``replacement``; returns how many bindings changed."""
        count = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set_attr(module, attr, replacement)
                    count += 1
        return count


_PATCHES: _Patches | None = None


def _process_kind(args: tuple) -> str:
    # Engine._loop_member / _temp_folder_member(self, ctx, result, region, pid, pools)
    return f"core.P{int(args[4]):02d}"


def install(out_dir: Path | str) -> Recorder:
    """Trace every layer in this process and in pools it forks."""
    global _ACTIVE, _PATCHES, _FORK_HOOK_REGISTERED
    if _ACTIVE is not None:
        raise RuntimeError("layer tracing is already installed")
    import repro.core.processes  # noqa: F401  (every process module)
    from repro.core.registry import PROCESSES

    for module in {m for m, _, _ in _TARGETS} | set(_FORMATS_READ) | set(_FORMATS_WRITE):
        importlib.import_module(module)
    patches = _Patches()
    targets = list(_TARGETS)
    targets += [(m, a, "formats.read") for m, attrs in _FORMATS_READ.items() for a in attrs]
    targets += [(m, a, "formats.write") for m, attrs in _FORMATS_WRITE.items() for a in attrs]
    for module_name, attr, kind in targets:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            patches.set_attr(cls, method, _wrap(getattr(cls, method), kind))
        else:
            original = getattr(module, attr)
            if patches.rebind_modules(original, _wrap(original, kind)) == 0:
                raise RuntimeError(f"no binding of {module_name}.{attr} found")
    for spec in PROCESSES.values():
        original = spec.run
        wrapper = _wrap(original, f"core.P{spec.pid:02d}")
        patches.rebind_modules(original, wrapper)
        patches.set_attr(spec, "run", wrapper)
    engine_cls = sys.modules["repro.engine.executor"].Engine
    for method in _PROCESS_METHODS:
        patches.set_attr(engine_cls, method, _wrap(getattr(engine_cls, method), _process_kind))
    patches.rebind_modules(ProcessPoolExecutor, TracedProcessPool)

    if not _FORK_HOOK_REGISTERED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOK_REGISTERED = True
    _PATCHES = patches
    _ACTIVE = Recorder(out_dir)
    return _ACTIVE


def uninstall() -> None:
    """Restore every binding :func:`install` replaced."""
    global _ACTIVE, _PATCHES
    if _PATCHES is not None:
        for restore in reversed(_PATCHES.undo):
            restore()
    _PATCHES = None
    _ACTIVE = None
