"""Tests of the benchmark itself, on smoke sizes of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import aslattice  # noqa: E402
import aslattice.genposets  # noqa: E402
import aslattice.straightening  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, ROOT, Tracer  # noqa: E402
from worker import EXPECTED_CALLS, Clock, measure, tail  # noqa: E402

SMOKE = {
    "corpus": lambda: workloads.Corpus(max_n=4),
    "certify": lambda: workloads.Certify(n=3),
    "search": lambda: workloads.Search(max_n=3),
    "generate": lambda: workloads.Generate(n=5),
}


def run_smoke(name, wl, workdir, traced=True):
    workdir.mkdir(parents=True, exist_ok=True)
    wl.setup(str(workdir), random.Random(1))
    return measure(wl, seconds=0, passes=1, tracer=Tracer() if traced else None,
                   workload=name)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_passes_gate_and_tracer(name, tmp_path):
    result = run_smoke(name, SMOKE[name](), tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    layers = result["layers"]
    for fn in EXPECTED_CALLS[name]:
        assert layers[fn + ".calls"][0] > 0, fn
    # Self times of every layer plus the root's add up to the traced wall.
    total = sum(v for k, (v, unit) in layers.items() if k.endswith(".s"))
    assert total == pytest.approx(layers["trace.wall_s"][0], rel=1e-9)
    assert layers["trace.wall_s"][0] == pytest.approx(result["wall_s"], rel=0.05)


def test_wrong_expected_value_fails_items(tmp_path):
    cases = {
        "corpus": ("classes", {**workloads.CLASSES, 3: 6}),
        "certify": ("counts", {**workloads.CERT_COUNTS, (2, 1): (3, 3)}),
        "search": ("counts", {**workloads.SEARCH_COUNTS, "000103": 2}),
        "generate": ("classes", {**workloads.CLASSES, 5: 64}),
    }
    for name, (attr, wrong) in cases.items():
        wl = SMOKE[name]()
        setattr(wl, attr, wrong)
        result = run_smoke(name, wl, tmp_path / name, traced=False)
        assert 0 < result["failed"] <= result["attempted"], name


def test_tracer_wraps_every_binding_and_restores_them():
    original = aslattice.straightening.check_condition_ii
    sites = [aslattice, aslattice.straightening, aslattice.genposets]
    assert all(m.check_condition_ii is original for m in sites)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.check_condition_ii is not original for m in sites)
        lat = aslattice.enumerate_ideals(aslattice.build_poset(["a", "b"], []))
        with tracer.span(ROOT):
            aslattice.genposets.check_condition_ii(lat)
    finally:
        tracer.uninstall()
    assert all(m.check_condition_ii is original for m in sites)
    assert tracer.calls["straightening.check_condition_ii"] == 1
    assert tracer.calls["straightening.straightening_relations"] == 6
    assert set(LAYERS) == {"posets", "ideals", "_kernels", "genposets", "straightening",
                           "uniqueness", "cli"}


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                    ("b", 5.0, 6.0, 0)]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.root_wall() == 10.0


def test_clock_subtracts_reference_slices():
    clock = Clock()
    with clock.measure():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert clock.slices >= 2
    assert clock.wall + clock.ref_wall == pytest.approx(0.35, abs=0.02)
    assert clock.items == [clock.wall]


def test_tail_percentile():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
