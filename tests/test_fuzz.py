"""Property test of file input: a built-in dump with one value replaced.

Whatever the value, every command must end in exit status 0, 1 or 2 with
no exception escaping `cli.main`, and when the file itself is rejected the
message must name the file.
"""

import contextlib
import io
import os
import tempfile

import pytest

from regsyn import cli, examples, sysfile

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_DIMENSIONS = ("p", "n", "nc", "nu")
_SIZES = ("-1", "0", "1", "2", "50")
_EXPRESSIONS = ("0", "1", "-2.5", "x1", "x2", "w1", "w3", "xi1", "u", "x1^2",
                "-x1 + u", "w1*xi2", "sin(w1)", "1/x1", "sqrt(x1)", "exp(x1)",
                "x1 +", "(w1", "1e308*x1", "nan", "inf")
_NUMBERS = ("0", "1", "-0.5", "1e308", "nan", "inf", "x1", "")
_COMMANDS = (("verify",), ("synthesize",),
             ("simulate", "--T", "0.01", "--dt", "0.001"))


def _slots(text):
    """Line numbers of the `key = value` lines of a dump."""
    return [i for i, line in enumerate(text.splitlines()) if "=" in line]


def _mutate(text, i, value):
    lines = text.splitlines()
    key = lines[i].split("=", 1)[0].strip()
    lines[i] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


@st.composite
def _mutated_dumps(draw):
    text = examples.get(draw(st.sampled_from(examples.names()))).text
    i = draw(st.sampled_from(_slots(text)))
    key = text.splitlines()[i].split("=", 1)[0].strip()
    if key in _DIMENSIONS:
        value = draw(st.sampled_from(_SIZES))
    elif key == "bc":
        value = ", ".join(draw(st.lists(st.sampled_from(_NUMBERS), max_size=4)))
    else:
        value = draw(st.sampled_from(_EXPRESSIONS))
    return _mutate(text, i, value)


# an empty exosystem that parses when p = 0 is accepted: no s keys are left
# over and the plant reads no w
_P0 = ("[plant]\nn = 1\nf1 = -x1 + u\ng = x1\n[reference]\nq = 0\n"
       "[exosystem]\np = 0\n")
_HUGE_GAIN = examples.get("example52").text.replace("\ng = x1\n", "\ng = 1e308*x1\n")


@hypothesis.settings(max_examples=150, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(_mutated_dumps())
@hypothesis.example(_P0)
@hypothesis.example(_HUGE_GAIN)
def test_mutated_file_never_escapes(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.sys")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            sysfile.parse_file(path)
            rejected = False
        except sysfile.SysFileError as exc:
            rejected = True
            assert str(exc).startswith(path), exc
        for command in _COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = cli.main([command[0], path, *command[1:]])
            assert status in (0, 1, 2), (command, status)
            if rejected:
                assert status == 2
                assert err.getvalue().startswith(f"error: {path}"), err.getvalue()
