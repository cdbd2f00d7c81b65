"""Property tests of outside input: a built-in dump with one value replaced,
and extreme values of `[params]`, `--cell`, `--T`, `--dt`, `--ic` and the
synthesis options; and the deterministic sweep of every built-in dump with
one value replaced or sections removed.

Whatever the input, every command must end in exit status 0, 1 or 2 with
no exception escaping `cli.main`, and a rejected input must be named in
the message: the file, or the option.  A mutated file that ends in exit
status 2 must leave stdout empty and name the file, and on any exit its
stderr holds that one error line and no warning.
"""

import contextlib
import io
import itertools
import os
import re
import tempfile
import warnings

import pytest

from regsyn import cli, examples, sysfile

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_DIMENSIONS = ("p", "n", "nc", "nu")
_SIZES = ("-1", "0", "1", "2", "50")
_EXPRESSIONS = ("0", "1", "-2.5", "x1", "x2", "w1", "w3", "xi1", "u", "x1^2",
                "-x1 + u", "w1*xi2", "sin(w1)", "1/x1", "sqrt(x1)", "exp(x1)",
                "x1 +", "(w1", "1e308*x1", "nan", "inf",
                # near the parser's and the compiler's limits: CPython refuses
                # source nested past 200 parentheses, which the generated code
                # of a flat sum of 200 terms or of 200 nested calls reaches
                *("x1" + " + 0*x1" * n for n in (150, 199, 200, 260)),
                *(f"{head * n}x1{')' * n}" for head in ("(", "sin(", "-(")
                  for n in (190, 199, 200)))
_NUMBERS = ("0", "1", "-0.5", "1e308", "nan", "inf", "x1", "")
_COMMANDS = (("verify",), ("synthesize",),
             ("simulate", "--T", "0.01", "--dt", "0.001"))


def _slots(text):
    """Line numbers of the `key = value` lines of a dump."""
    return [i for i, line in enumerate(text.splitlines()) if "=" in line]


def _key(text, i):
    return text.splitlines()[i].split("=", 1)[0].strip()


def _values(key):
    """The values a mutated `key = value` line takes; a bc list of one."""
    return _SIZES if key in _DIMENSIONS else _NUMBERS if key == "bc" else _EXPRESSIONS


def _mutate(text, i, value):
    lines = text.splitlines()
    lines[i] = f"{_key(text, i)} = {value}"
    return "\n".join(lines) + "\n"


@st.composite
def _mutated_dumps(draw):
    text = examples.get(draw(st.sampled_from(examples.names()))).text
    i = draw(st.sampled_from(_slots(text)))
    key = _key(text, i)
    if key == "bc":
        value = ", ".join(draw(st.lists(st.sampled_from(_NUMBERS), max_size=4)))
    else:
        value = draw(st.sampled_from(_values(key)))
    return _mutate(text, i, value)


# an empty exosystem that parses when p = 0 is accepted: no s keys are left
# over and the plant reads no w
_P0 = ("[plant]\nn = 1\nf1 = -x1 + u\ng = x1\n[reference]\nq = 0\n"
       "[exosystem]\np = 0\n")
_HUGE_GAIN = examples.get("example52").text.replace("\ng = x1\n", "\ng = 1e308*x1\n")
# G and the closed loop's Bc*C overflow: failed checks, no numpy warning
_HUGE_GAIN53 = examples.get("example53").text.replace("\ng = x1\n", "\ng = 1e308*x1\n")
# finite rows whose inf-norm overflows, with eigenvalues 1e308 +- 1.5e308i:
# in [exosystem] S, in [plant] A
_ROWS = ("1e308*{0}1 + 1.5e308*{0}2", "-1.5e308*{0}1 + 1e308*{0}2")
_HUGE_EXOSYSTEM = (examples.get("example51").text
                   .replace("s1 = w2 - w1^4", "s1 = " + _ROWS[0].format("w"))
                   .replace("s2 = -w1^3", "s2 = " + _ROWS[1].format("w")))
_HUGE_PLANT = (examples.get("example51").text
               .replace("f1 = x2 - w1", "f1 = " + _ROWS[0].format("x"))
               .replace("f2 = -x1 - x2 - sin(x2) + (1 + x2^2)*u", "f2 = " + _ROWS[1].format("x")))


_PINNED_FILES = (_P0, _HUGE_GAIN, _HUGE_GAIN53, _HUGE_EXOSYSTEM, _HUGE_PLANT)


def _never_escapes(path, text):
    """Write text to path and run each command on it: no exception escapes
    cli.main, an exit 2 leaves stdout empty and names the file, and stderr
    holds that one error line and no warning."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        sysfile.parse_file(path)
        rejected = False
    except sysfile.SysFileError as exc:
        rejected = True
        assert str(exc).startswith(path), exc
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = cli.main([command[0], path, *command[1:]])
        assert status in (0, 1, 2), (command, status)
        # stderr holds the one error line of an exit 2 and nothing else
        assert caught == [], (command, [str(w.message) for w in caught])
        assert err.getvalue().count("\n") == (status == 2), (command, err.getvalue())
        # no command here writes --out, so an input error prints nothing
        if status == 2:
            assert out.getvalue() == "", (command, out.getvalue(), err.getvalue())
            assert err.getvalue().startswith(f"error: {path}"), (command, err.getvalue())
        if rejected:
            assert status == 2


@hypothesis.settings(max_examples=150, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(_mutated_dumps())
def test_mutated_file_never_escapes(text):
    with tempfile.TemporaryDirectory() as tmp:
        _never_escapes(os.path.join(tmp, "mutated.sys"), text)


def _swept_files():
    """Each built-in with one `key = value` line set to each of its values,
    and with each combination of its sections removed; then the pinned
    files."""
    for name in examples.names():
        text = examples.get(name).text
        for i in _slots(text):
            for value in _values(_key(text, i)):
                yield _mutate(text, i, value)
        head, *sections = re.split(r"(?m)^(?=\[)", text)
        for count in range(1, len(sections) + 1):
            for gone in itertools.combinations(sections, count):
                yield head + "".join(s for s in sections if s not in gone)
    yield from _PINNED_FILES


def test_swept_file_never_escapes(tmp_path):
    # 1825 files, each run by every command
    path = str(tmp_path / "mutated.sys")
    for text in _swept_files():
        _never_escapes(path, text)


# ------------------------------------------------- extreme option values

_EXTREMES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "1e400", "x")
_DEFAULT_PARAMS = {"C": "4e-5", "L": "0.004", "R": "400", "r": "0.25", "v0": "100",
                   "z10": "400", "alpha": "628.3185307179586"}
# argparse takes "-inf" after --cell for an option, so W1 has no "-inf"
_W1 = ("nan", "inf", "0", "10", "-10", "-97.98", "1e300")
_RHO = ("nan", "inf", "-0.1", "0", "0.4", "0.9", "5", "1e300")
# horizons and steps, drawn half the time from the ordinary ones: every
# pair either runs at most 1000 RK4 steps or is refused before any work
_T = st.sampled_from(("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300")) \
    | st.sampled_from(("0.01", "1"))
_DT = st.sampled_from(("nan", "inf", "0", "-0.1", "1e-300", "1e300")) \
    | st.sampled_from(("1e-3", "0.1"))
_IC = ("0", "1", "-1", "1e308", "nan", "inf", "x")


@st.composite
def _boost_runs(draw):
    edits = draw(st.dictionaries(st.sampled_from(sorted(_DEFAULT_PARAMS) + ["beta"]),
                                 st.sampled_from(_EXTREMES), max_size=2))
    params = "".join(f"{k} = {v}\n" for k, v in {**_DEFAULT_PARAMS, **edits}.items())
    cells = draw(st.lists(st.tuples(st.sampled_from(_W1), st.sampled_from(_RHO)),
                          min_size=1, max_size=2))
    argv = ["boost", "--params", "FILE", "--ode-steps", "50"]
    for w1, rho in cells:
        argv += ["--cell", w1, rho]
    return "[params]\n" + params, argv


@st.composite
def _simulate_runs(draw):
    argv = ["simulate", "FILE", f"--T={draw(_T)}", f"--dt={draw(_DT)}"]
    if draw(st.booleans()):
        size = draw(st.sampled_from((3, 6, 6, 6)))
        ic = draw(st.lists(st.sampled_from(_IC), min_size=size, max_size=size))
        argv.append("--ic=" + ",".join(ic))
    return examples.get("example51").text, argv


# each synthesis option drawn from the extremes or its default; argparse
# itself refuses a --max-halvings that is not an integer
_SYNTHESIS_EXTREMES = ("nan", "inf", "-1", "0", "1e200")
_SYNTHESIS_OPTIONS = {"--eps0": _SYNTHESIS_EXTREMES + ("1",),
                      "--factor": _SYNTHESIS_EXTREMES + ("0.5",),
                      "--max-halvings": ("-1", "0", "40"),
                      "--margin": _SYNTHESIS_EXTREMES + ("1e-6",)}


@st.composite
def _synthesize_runs(draw):
    argv = ["synthesize", "FILE"]
    for option, values in _SYNTHESIS_OPTIONS.items():
        argv.append(f"{option}={draw(st.sampled_from(values))}")
    return examples.get(draw(st.sampled_from(examples.names()))).text, argv


@hypothesis.settings(max_examples=200, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(st.one_of(_boost_runs(), _simulate_runs(), _synthesize_runs()))
@hypothesis.example((examples.get("example51").text,
                     ["simulate", "FILE", "--T=1", "--dt=1e-3", "--ic=nan,inf,0,0,0,0"]))
# w1^4 overflows inside one RK4 step after a stage input left the cap ball
@hypothesis.example((examples.get("example51").text,
                     ["simulate", "FILE", "--T=1", "--dt=1e-3", "--ic=-1,-1,-1,-1,-1,-1"]))
@hypothesis.example((examples.get("example51").text,
                     ["simulate", "FILE", "--T=1e300", "--dt=1e300"]))
def test_extreme_option_values_never_escape(run):
    text, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.sys")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [path if a == "FILE" else a for a in argv]
        if argv[0] == "boost":
            argv += ["--out", os.path.join(tmp, "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    assert status in (0, 1, 2), (argv, status)
    if status == 2:
        # besides the options and the file, a message may name a circle by
        # its --cell values.  example51 has no evaluation error inside the
        # cap ball, so no run of it ends in one
        named = tuple(f"error: {n}" for n in (path, "--T/--dt:", "--ic", "--cell:",
                                              *(f"{o}:" for o in _SYNTHESIS_OPTIONS)))
        message = err.getvalue()
        assert message.startswith(named) or " at (w1, rho) = (" in message, (argv, message)
