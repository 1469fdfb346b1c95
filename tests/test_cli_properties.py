"""Property tests: every CLI argument vector ends in a documented exit code,
and a config file of the same options runs exactly like the flags."""

import contextlib
import io
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gjmslab.cli import main

COMMANDS = ("eigenvalues", "sharp-constant", "minimize", "solve", "probe", "verify", "sweep")


def _mostly(good, bad):
    """Draw from `good` three times in four, else from `bad`."""
    return st.integers(0, 3).flatmap(lambda i: good if i else st.sampled_from(bad))


BAD_ORDER = ["-1", "0", "1.5", "x", ""]
BAD_DIM = ["-1", "2", "4", "3.0", "n", "400"]
DEGREE = _mostly(st.integers(0, 16).map(str), ["-2", "-1", "4.5"])
SEED = _mostly(st.integers(0, 2**32).map(str), ["-1", "0.5"])
TOL = _mostly(st.sampled_from(["1e-12", "1e-8", "1e-3"]), ["0", "-1", "nan", "tol"])
ITERS = _mostly(st.sampled_from(["1", "5", "30"]), ["-1", "0", "2.5"])
RHS = _mostly(st.sampled_from(["1:3", "1:2,2:3", "0.5:1.5,1:4"]), ["-1:3", "1:0.5", "a:b", "1", ""])
INIT = _mostly(
    st.sampled_from(["constant", "random", "bubble:2", "bubble:0.5"]),
    ["bubble:0", "bubble:-1", "bubble:x", "other"],
)
QUADRATURE = _mostly(st.just("0"), [str(q) for q in range(0, 49, 6)])


def _fmt(*choices):
    return st.sampled_from([*choices, "xml"])


@st.composite
def argv_vectors(draw):
    """One subcommand with a draw of its options, mostly inside the domain.

    (n, m, p) are drawn with n > 2m and 2 < p < 2n/(n - 2m) three times in
    four; trials and starts are always given and small, so an example stays cheap.
    """
    command = draw(st.sampled_from(COMMANDS))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2 * m + 1, 2 * m + 6))
    p_crit = 2.0 * n / (n - 2.0 * m)
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    p = _mostly(st.just(repr(2.0 + draw(inside) * (p_crit - 2.0))), ["nan", "inf", "1", "2", "30", "p"])
    sphere = {"--m": _mostly(st.just(str(m)), BAD_ORDER), "--n": _mostly(st.just(str(n)), BAD_DIM)}
    solver = {**sphere, "--K": DEGREE, "--seed": SEED, "--tol": TOL}
    # solve and probe take one right-hand side, --p or --f
    rhs = draw(st.sampled_from([{"--p": p}, {"--f": RHS}]))
    required, optional = {
        "eigenvalues": ({}, {**sphere, "--K": DEGREE, "--format": _fmt("csv", "json")}),
        "sharp-constant": (
            {},
            {**sphere, "--p": st.lists(p, max_size=3).map(",".join), "--format": _fmt("csv", "json")},
        ),
        "minimize": (
            {"--p": p, "--starts": st.integers(0, 3).map(str)},
            {**solver, "--max-iter": ITERS},
        ),
        "solve": (
            rhs,
            {**solver, "--Q": QUADRATURE, "--max-iter": ITERS, "--init": INIT},
        ),
        "probe": ({**rhs, "--trials": st.integers(-1, 3).map(str)}, solver),
        "verify": (
            {"--trials": st.integers(0, 4).map(str)},
            {**sphere, "--K": DEGREE, "--seed": SEED, "--format": _fmt("text", "json")},
        ),
        "sweep": (
            {"--starts": st.integers(0, 2).map(str)},
            {
                "--m": st.lists(sphere["--m"], max_size=2).map(",".join),
                "--n": st.lists(sphere["--n"], max_size=2).map(",".join),
                "--p": st.lists(p, max_size=3).map(",".join),
                "--K": DEGREE,
                "--seed": SEED,
            },
        ),
    }[command]
    options = draw(st.fixed_dictionaries(required, optional=optional))
    return [command] + [f"{flag}={value}" for flag, value in options.items()]


def _run(argv):
    """Exit code and stdout of one call, without the wall-time line of a report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    return code, "".join(line for line in lines if '"wall_time_s"' not in line)


def _run_config(directory, command, text):
    path = os.path.join(directory, "run.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return _run([command, "--config", path])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv_vectors())
def test_every_argument_vector_ends_in_a_documented_exit_code(argv):
    code, _ = _run(argv)
    assert code in (0, 2, 3, 4), argv


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv_vectors(), st.booleans())
def test_a_config_file_runs_exactly_like_its_flags(argv, underscores):
    lines = []
    for option in argv[1:]:
        key, value = option[2:].split("=", 1)
        lines.append(f"{key.replace('-', '_') if underscores else key} = {value}\n")
    with tempfile.TemporaryDirectory() as directory:
        assert _run_config(directory, argv[0], "".join(lines)) == _run(argv), lines


@pytest.mark.parametrize(
    "command,text",
    [
        ("solve", "p = abc\n"),
        ("minimize", "p = abc\n"),
        ("probe", "p = abc\n"),
        ("sharp-constant", "format = xml\n"),
        ("minimize", "p = 3\nconfig = other.cfg\n"),
    ],
)
def test_bad_config_values_are_usage_errors(tmp_path, command, text):
    assert _run_config(tmp_path, command, text) == (2, "")


def test_config_echoes_an_integral_exponent_as_the_flag_does(tmp_path):
    code, out = _run_config(tmp_path, "minimize", "p = 3\nK = 8\nstarts = 1\n")
    assert code == 0
    assert '"p": 3.0,' in out
    assert (code, out) == _run(["minimize", "--p", "3", "--K", "8", "--starts", "1"])
