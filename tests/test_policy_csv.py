"""The policy.csv writer: every field is exactly '%.16e' % v of its float.

The fields are formatted in numpy; '%.16e', which Python rounds correctly
one value at a time, is the reference throughout. Seventeen digits read
back to the very double they came from, the one repr names too.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustmm.cli import _exact_fields, _policy_csv

# an exponent of 100 or more (every subnormal has one), a sign or a non-finite
# value widens a field past 22 bytes
WIDE = [5e-324, 2.2250738585072014e-308, 1e-100, 9.999999999999999e-101, 1e100, 1.0000000000000002e100,
        1e308, -0.0, -1.0, np.inf, np.nan]


def assert_exact(values) -> int | None:
    """values formatted together: exactly '%.16e' of each, reading back to the value
    itself, or reported wide when one field is not 22 bytes; returns the formatter's
    count of values sent to '%.16e'."""
    values = np.asarray(values, dtype=np.float64)
    want = [b"%.16e" % v for v in values.tolist()]
    narrow = all(len(field) == 22 for field in want)
    out = np.zeros((values.size, 22), np.uint8)
    slow = _exact_fields(values, out)
    assert (slow is not None) == narrow
    if narrow and out.tobytes() != b"".join(want):
        bad = next(i for i, row in enumerate(out) if row.tobytes() != want[i])
        pytest.fail(f"{values[bad]!r} formatted as {out[bad].tobytes()!r}, not {want[bad]!r}")
    if narrow:
        assert np.array_equal(out.view("S22").ravel().astype(np.float64), values)
    return slow


def neighbours(exact) -> np.ndarray:
    exact = np.asarray(exact, dtype=np.float64)
    return np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])


def decimals(rng, n: int) -> np.ndarray:
    places = rng.integers(0, 16, n)
    values = rng.uniform(0.0, 100.0, n)
    return np.array([round(v, k) for v, k in zip(values.tolist(), places.tolist())])


FAMILIES = {
    # a million values over the families together
    "uniform": lambda rng: rng.uniform(0.4, 3.9, 200_000),
    "log-uniform": lambda rng: 10.0 ** rng.uniform(-8.0, 18.0, 300_000),
    "decimals": lambda rng: decimals(rng, 200_000),
    "float32": lambda rng: rng.uniform(0.0, 1e4, 100_000).astype(np.float32).astype(np.float64),
    "gibbs-like": lambda rng: np.exp(rng.uniform(-9.0, 2.3, 200_000)),
    "powers": lambda rng: neighbours(np.concatenate([10.0 ** np.arange(-8, 19), 2.0 ** np.arange(-40, 80)])),
    # the ends of the vectorized range: at 1e-6, hi rounds to 1e16 while the exact product lies below it
    "edges": lambda rng: np.concatenate([neighbours([1e-6, 1e16, 1e-98, 1e99]), np.zeros(3)]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_formatter_matches_repr(family):
    # each field is '%.16e' byte for byte and reads back to the double repr names
    assert assert_exact(FAMILIES[family](np.random.default_rng(sorted(FAMILIES).index(family)))) is not None


@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_formatter_matches_repr_on_any_non_negative_float(values):
    assert_exact(values)


def test_fast_path_decides_nearly_every_density():
    # a writer that sent every value to '%.16e' would pass the byte checks;
    # Gibbs-like densities must nearly all take the vectorized path
    values = np.exp(np.random.default_rng(5).uniform(-9.0, 2.3, 100_000))
    assert assert_exact(values) <= 0.01 * values.size


def test_edge_values_raise_no_numpy_warning():
    # the suite turns RuntimeWarning into an error; beside ordinary values the
    # wide ones are reported, and never overflow or cast a non-finite value
    for value in WIDE:
        assert assert_exact([0.5, value, 3.0]) is None


def reference_csv(nodes, density) -> bytes:
    nodes = nodes.tolist()
    rows = (b"%.16e,%.16e,%.16e\n" % (x, y, v)
            for x, row in zip(nodes, density.tolist()) for y, v in zip(nodes, row))
    return b"eps_plus,eps_minus,density\n" + b"".join(rows)


def test_policy_csv_lines_are_69_bytes():
    # with no wide field, every line is three 22-byte fields, two commas and a newline
    nodes = np.linspace(0.0, 0.7, 9)
    density = np.exp(np.random.default_rng(3).uniform(-9.0, 2.3, (9, 9)))
    density.flat[::9] = [0.0, 1e-6, 0.5, 2.0, 1e-5, 3e15, 9e15, 0.1, 123456.0]
    text = b"".join(_policy_csv(nodes, density))
    assert text == reference_csv(nodes, density)
    assert {len(line) for line in text.splitlines(keepends=True)[1:]} == {69}


def test_policy_csv_streams_blocks_and_special_values():
    # 9 rows make a short last block; zeros, powers of two, values outside the
    # vectorized range and wide fields, written line by line, sit among ordinary densities
    nodes = np.linspace(0.0, 0.7, 9)
    density = np.exp(np.random.default_rng(3).uniform(-9.0, 2.3, (9, 9)))
    density.flat[::7] = [0.0, 5e-324, 0.5, 2.0, 1e-5, 3e16, 1e300, 0.1, 123456.0, 7.0, 0.25, 1e-7]
    assert b"".join(_policy_csv(nodes, density)) == reference_csv(nodes, density)


def test_policy_csv_writes_every_line_of_a_wide_node_by_line():
    nodes = np.linspace(0.0, 0.7, 9)
    nodes[1] = 1e-200
    density = np.exp(np.random.default_rng(4).uniform(-9.0, 2.3, (9, 9)))
    assert b"".join(_policy_csv(nodes, density)) == reference_csv(nodes, density)


def test_policy_csv_memory_is_bounded():
    # at the default grid the writer holds a block of text and scratch
    # arrays, never the whole file of about 4.6 MB
    nodes = np.linspace(0.0, 0.8, 257)
    density = np.exp(-np.add.outer(nodes, nodes) * np.random.default_rng(2).uniform(0.5, 1.5, (257, 257)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = sum(len(chunk) for chunk in _policy_csv(nodes, density))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert size == len(b"eps_plus,eps_minus,density\n") + 257 * 257 * 69
    assert peak <= 1_000_000 < size / 2
