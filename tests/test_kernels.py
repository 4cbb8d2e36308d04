"""The compiled kernels: differential checks, build robustness, backend gauge.

Each kernel is compared bit for bit against the Python loop it
replaces.  The build tests point ``XDG_CACHE_HOME`` at a fresh
directory so every case starts from an empty kernel cache.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cache import CacheConfig, LruCache, kernels
from repro.core import prefetch

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_kernels(monkeypatch, tmp_path):
    """An empty kernel cache and a library not yet resolved."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(kernels, "_lib", kernels._Unresolved())
    return tmp_path


def _stream(seed: int = 11, n: int = 20000) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 3000, size=n).astype(np.int64)


def _python_masks(lines: np.ndarray, monkeypatch) -> np.ndarray:
    with monkeypatch.context() as patched:
        patched.setattr(kernels, "_lib", None)
        return LruCache(CacheConfig()).simulate(lines)


def test_prefetch_recurrence_matches_python_loop(monkeypatch):
    rng = np.random.default_rng(620)
    for _ in range(200):
        n = int(rng.integers(0, 2000))
        misses = rng.integers(0, 4, size=n) * (rng.random(n) < 0.3)
        depth = int(rng.choice([1, 2, 5, 64, n + 1, n + 7]))
        latency = float(rng.choice([0.0, 1.5, 30.0, 250.0]))
        bus_ratio = float(rng.choice([0.5, 1.0, 3.0, 16.0]))
        compiled = prefetch.simulate_prefetch_pipeline(misses, depth, latency, bus_ratio)
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "_lib", None)
            python = prefetch.simulate_prefetch_pipeline(misses, depth, latency, bus_ratio)
        assert compiled == python


def test_no_compiler_falls_back_to_python(fresh_kernels, monkeypatch):
    monkeypatch.setattr(kernels.shutil, "which", lambda name: None)
    lines = _stream()
    masks = LruCache(CacheConfig()).simulate(lines)
    assert kernels.backend() == "python"
    assert np.array_equal(masks, _python_masks(lines, monkeypatch))


def test_unwritable_cache_dir_falls_back_to_python(fresh_kernels, monkeypatch):
    blocker = fresh_kernels / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert kernels.library() is None
    assert kernels.backend() == "python"


def test_backend_gauge_set_on_first_resolution(fresh_kernels, monkeypatch):
    backend = kernels.backend()
    gauge = obs.registry().get("cache.kernel_backend")
    assert gauge is not None
    assert gauge.value == (1.0 if backend == "c" else 0.0)

    monkeypatch.setattr(kernels.shutil, "which", lambda name: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_kernels / "empty"))
    monkeypatch.setattr(kernels, "_lib", kernels._Unresolved())
    assert kernels.backend() == "python"
    assert gauge.value == 0.0


_CHILD = """
import hashlib
import numpy as np
from repro.cache import CacheConfig, LruCache, kernels
lines = np.random.default_rng(11).integers(0, 3000, size=20000).astype(np.int64)
mask = LruCache(CacheConfig()).simulate(lines)
print(kernels.backend(), hashlib.sha256(mask.tobytes()).hexdigest())
"""


def test_concurrent_builds_both_load_and_agree(tmp_path, monkeypatch):
    if kernels.library() is None:
        pytest.skip("no working C compiler here")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "xdg"), PYTHONPATH=str(SRC))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD], env=env, stdout=subprocess.PIPE, text=True
        )
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=120)[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    expected = _python_masks(_stream(), monkeypatch)
    digest = hashlib.sha256(expected.tobytes()).hexdigest()
    assert outputs == [["c", digest], ["c", digest]]
    built = list((tmp_path / "xdg" / "repro" / "kernels").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
