"""The policy.csv writer: every field is exactly repr of its float.

The densities are formatted in numpy; repr, which finds the shortest
round-trip digits one value at a time, is the reference throughout.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustmm.cli import _format_floats, _policy_csv

EDGES = [1e-4, 9.999999999999999e-05, 1e15, 1e16, 0.0, 5e-324, 2.2250738585072014e-308, 1e308]


def formatted(values) -> tuple[str, int]:
    """The formatter's text of values, one per line, and how many went to repr."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((values.size, 40), np.uint8)
    out[:, 36] = ord("\n")
    slow = _format_floats(values, out[:, :36])
    return out.tobytes().translate(None, b"\0").decode(), slow


def assert_repr(values) -> int:
    values = np.asarray(values, dtype=np.float64)
    got, slow = formatted(values)
    want = "".join(f"{v!r}\n" for v in values.tolist())
    if got != want:
        bad = next(v for v, g in zip(values.tolist(), got.splitlines()) if g != repr(v))
        pytest.fail(f"{bad!r} formatted as {got.splitlines()[values.tolist().index(bad)]!r}")
    return slow


def powers(base: float, lo: int, hi: int) -> np.ndarray:
    exact = base ** np.arange(lo, hi, dtype=np.float64)
    return np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])


def decimals(rng, n: int) -> np.ndarray:
    places = rng.integers(0, 16, n)
    values = rng.uniform(0.0, 100.0, n)
    return np.array([round(v, k) for v, k in zip(values.tolist(), places.tolist())])


FAMILIES = {
    "uniform": lambda rng: rng.uniform(0.4, 3.9, 200_000),
    "log-uniform": lambda rng: 10.0 ** rng.uniform(-6.0, 17.0, 200_000),
    "decimals": lambda rng: decimals(rng, 200_000),
    "float32": lambda rng: rng.uniform(0.0, 1e4, 200_000).astype(np.float32).astype(np.float64),
    "gibbs-like": lambda rng: np.exp(rng.uniform(-9.0, 2.3, 200_000)),
    "powers": lambda rng: np.concatenate([powers(10.0, -8, 24), powers(2.0, -40, 80)]),
    "edges": lambda rng: np.array(EDGES),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_formatter_matches_repr(family):
    # a million values over the families together, each written exactly as repr
    assert_repr(FAMILIES[family](np.random.default_rng(sorted(FAMILIES).index(family))))


@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_formatter_matches_repr_on_any_non_negative_float(values):
    assert_repr(values)


def test_fast_path_decides_nearly_every_density():
    # a writer that sent every value to repr would pass the byte checks;
    # Gibbs-like densities must nearly all take the vectorized path
    values = np.exp(np.random.default_rng(5).uniform(-9.0, 2.3, 100_000))
    assert assert_repr(values) <= 0.01 * values.size


def test_edge_values_raise_no_numpy_warning():
    # the suite turns RuntimeWarning into an error; the edge values are the
    # ones that would overflow, divide by zero or cast a non-finite value
    assert formatted(EDGES)[0] == "".join(f"{v!r}\n" for v in EDGES)


def reference_csv(nodes, density) -> bytes:
    nodes = nodes.tolist()
    rows = (f"{x!r},{y!r},{v!r}\n" for x, row in zip(nodes, density.tolist()) for y, v in zip(nodes, row))
    return ("eps_plus,eps_minus,density\n" + "".join(rows)).encode()


def test_policy_csv_streams_blocks_and_special_values():
    # 9 rows make a short last block; zeros, subnormals, powers of two and
    # values outside the vectorized range sit among ordinary densities
    nodes = np.linspace(0.0, 0.7, 9)
    density = np.exp(np.random.default_rng(3).uniform(-9.0, 2.3, (9, 9)))
    density.flat[::7] = [0.0, 5e-324, 0.5, 2.0, 1e-5, 3e15, 1e300, 0.1, 123456.0, 7.0, 0.25, 1e-4]
    assert b"".join(_policy_csv(nodes, density)) == reference_csv(nodes, density)


def test_policy_csv_memory_is_bounded():
    # at the default grid the writer holds a few blocks of text and scratch
    # arrays, never the whole file of about 3 MB
    nodes = np.linspace(0.0, 0.8, 257)
    density = np.exp(-np.add.outer(nodes, nodes) * np.random.default_rng(2).uniform(0.5, 1.5, (257, 257)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = sum(len(chunk) for chunk in _policy_csv(nodes, density))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000 < size / 2
