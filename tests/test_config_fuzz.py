"""Property test of the CLI input boundary over generated config files.

Each example starts from a small valid run (grid_n <= 64, at most 300
resamples, 5 000 episodes and one validate budget), replaces a few keys
with valid, malformed, non-finite, negative or out-of-range values, and
writes sample files of at most 8 lines. Whatever the input, main must
return one of the documented exit codes without an exception, a failure
prints one stderr line, and a config error names a key or a path:line.
"""
import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from robustmm.cli import main
from robustmm.config import _KNOWN_KEYS

BASE = {
    "samples.buy": "buy.csv",
    "samples.sell": "sell.csv",
    "model.S": "5.0",
    "model.Q": "1.0",
    "model.eta": "0.8",
    "model.gamma": "2.0",
    "model.f_plus": "constant(0.2)",
    "model.f_minus": "constant(0.2)",
    "model.h_plus": "exp_decay(1.0, 1.2)",
    "model.h_minus": "exp_decay(1.0, 1.2)",
    "domain.eps_max": "0.8",
    "domain.grid_n": "33",
    "radius.delta": "0.02",
    "radius.resamples": "200",
    "simulate.deltas": "0.0, 0.02",
    "simulate.episodes": "2000",
    "validate.deltas": "0.04",
    "validate.tol": "1e-4",
    "seed": "7",
}

# a key left out takes its default; these defaults exceed the size limits above
_NOT_DROPPED = {"domain.grid_n", "radius.resamples", "simulate.episodes", "validate.deltas"}

# each key's values as (valid, bad): malformed, non-finite, negative or out of range
_BAD_NUMBERS = st.sampled_from(["blue", "", "1.0.0", "nan", "inf", "-inf", "-1.5", "0",
                                "1e150", "1e300", "-1e300", "1e-300", "1e308"])


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr), _BAD_NUMBERS


def _ints(lo, hi, bad):
    return st.integers(lo, hi).map(str), st.sampled_from(bad + ["x", "1.5", ""])


def _radii(count, hi):
    valid = st.lists(st.floats(0.0, hi), min_size=1, max_size=count).map(
        lambda v: ", ".join(map(repr, v)))
    return valid, st.sampled_from(["", "nan, 0.01", "-0.1", "a, b", "1e300", "0.01 0.02"])


def _files(*names):
    return st.sampled_from(names), st.sampled_from(["missing.csv", "."])


_CURVES = (
    st.one_of(
        st.builds("constant({!r})".format, st.floats(0.05, 0.6)),
        st.builds("affine({!r}, {!r})".format, st.floats(0.1, 0.5), st.floats(-0.05, 0.1)),
        st.builds("exp_decay({!r}, {!r})".format, st.floats(0.3, 1.2), st.floats(0.5, 2.0)),
    ),
    st.sampled_from(["foo(1.0)", "constant(", "affine(1.0)", "exp_decay(1.0, nan)", "constant(-1)",
                     "affine(0.1, -1.0)", "exp_decay(1.0, -2000)", "constant(1e300)", "constant(1e308)", ""]),
)

VALUES = {
    "samples.buy": _files("buy.csv", "sell.csv"),
    "samples.sell": _files("sell.csv", "buy.csv"),
    "model.S": _floats(1.0, 10.0),
    "model.Q": _floats(-2.0, 2.0),
    "model.eta": _floats(0.0, 1.0),
    "model.gamma": _floats(0.5, 3.0),
    "model.f_plus": _CURVES,
    "model.f_minus": _CURVES,
    "model.h_plus": _CURVES,
    "model.h_minus": _CURVES,
    "domain.eps_max": _floats(0.2, 1.0),
    "domain.grid_n": _ints(16, 64, ["0", "15", "-3", "4097", "1000000000000"]),
    "radius.delta": _floats(0.0, 1.0),
    "radius.chi": _floats(0.05, 0.5),
    "radius.resamples": _ints(100, 300, ["99", "-1", "100000000"]),
    "simulate.deltas": _radii(2, 0.3),
    "simulate.episodes": _ints(1000, 5000, ["999", "-5", "1000000000"]),
    "simulate.shift_mean_plus": _floats(-0.5, 0.5),
    "simulate.shift_sd_scale_plus": _floats(0.5, 1.5),
    "simulate.shift_mean_minus": _floats(-0.5, 0.5),
    "simulate.shift_sd_scale_minus": _floats(0.5, 1.5),
    "validate.deltas": _radii(1, 0.05),
    "validate.tol": _floats(1e-6, 1e-2),
    "seed": _ints(0, 2**32, ["-1"]),
    "output.dir": (st.sampled_from(["out", "a/b"]), st.just("")),
}

_SAMPLE_VALUE = st.floats(0.1, 2.0).map(repr)
_SAMPLE_LINE = st.one_of(_SAMPLE_VALUE, st.sampled_from(
    ["x", "nan", "inf", "", "-0.5", "1,2", "value", "1e300", "-1e60", "1e49", "1e-300"]))


@st.composite
def sample_files(draw):
    """Buy and sell lines: mostly n valid values a side, now and then a
    free mix of values and bad lines."""
    n = draw(st.integers(2, 8))
    return tuple(draw(st.lists(_SAMPLE_LINE, max_size=8) if draw(st.integers(0, 4)) == 4
                      else st.lists(_SAMPLE_VALUE, min_size=n, max_size=n))
                 for _ in range(2))


_COMMANDS = ["solve", "radius", "simulate", "validate"]
_BAD_LINES = ["model.rho = 1\n", "no equals sign\n", "seed = 3\n"]


@st.composite
def runs(draw):
    """A command and the text of its config file."""
    command = draw(st.sampled_from(_COMMANDS))
    lines = dict(BASE)
    if command == "radius" or draw(st.booleans()):
        del lines["radius.delta"]
        lines["radius.chi"] = "0.1"
    for key in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=4, unique=True)):
        kind = draw(st.integers(0, 9))
        if kind == 9 and key not in _NOT_DROPPED:
            lines.pop(key, None)
        else:
            lines[key] = draw(VALUES[key][kind >= 6])
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    # now and then a line the parser itself rejects
    bad = draw(st.integers(0, 10 * len(_BAD_LINES)))
    return command, text + (_BAD_LINES[bad - 1] if 0 < bad <= len(_BAD_LINES) else "")


@settings(max_examples=100, deadline=None)
@given(run=runs(), samples=sample_files())
def test_generated_configs_exit_cleanly(run, samples):
    command, config = run
    buy, sell = samples
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.cfg").write_text(config)
        (root / "buy.csv").write_text("".join(line + "\n" for line in buy))
        (root / "sell.csv").write_text("".join(line + "\n" for line in sell))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(root / "run.cfg"), "--out", str(root / "out")])
    err = err.getvalue()
    event(f"exit {code}")
    assert code in {0, 2, 3, 4, 5}
    assert err.count("\n") == (0 if code == 0 else 1), err
    if code == 2:
        assert any(key in err for key in _KNOWN_KEYS) or re.search(r":\d+: ", err), err
