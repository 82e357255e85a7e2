"""Seeded inputs: one seed gives identical bytes, another seed gives the
same files and point counts with different samples."""

import hashlib

import pytest

import workloads
from repro.formats.v1 import read_v1


def _tree(directory):
    return {
        p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _points(directory):
    return {
        p.relative_to(directory).as_posix(): read_v1(p).header.npts
        for p in sorted(directory.rglob("*.v1"))
    }


@pytest.mark.parametrize("name", ["event-large-process", "bulletin-small"])
def test_seed_determines_inputs(tmp_path, name):
    wl = workloads.workload(name)
    workloads.generate_inputs(wl, 7, tmp_path / "a")
    workloads.generate_inputs(wl, 7, tmp_path / "b")
    workloads.generate_inputs(wl, 8, tmp_path / "c")
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a == b
    assert sorted(a) == sorted(c)
    assert _points(tmp_path / "a") == _points(tmp_path / "c")
    assert all(a[name] != c[name] for name in a)


def test_points_follow_the_catalog():
    wl = workloads.workload("event-large-serial")
    ((spec, points),) = workloads.event_specs(wl, 1)
    assert len(points) == 19 and sum(points) == 38_400
    assert spec.seed == workloads.derived_seed(1, 0) != workloads.derived_seed(2, 0)


def test_unknown_workload_lists_choices():
    with pytest.raises(ValueError, match="bulletin-small"):
        workloads.workload("nope")
