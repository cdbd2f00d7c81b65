import pytest

from regsyn import examples, expr, sysfile
from regsyn.model import ControllerModel
from regsyn.sysfile import SysFileError, controller_section, parse_text


MINIMAL = """
[plant]
n = 1
f1 = -x1 + u
g = x1

[reference]
q = w1

[exosystem]
p = 1
s1 = 0
"""

_IMMERSION = "\n[immersion]\nnu = 1\ntau1 = w1\nphi1 = 0\nlam = xi1\n"


def test_parse_minimal():
    sf = parse_text(MINIMAL)
    assert sf.plant.n == 1
    assert sf.exo.p == 1
    assert sf.controller is None
    assert sf.immersion is None
    assert sf.regulator_solution is None
    assert sf.params is None


def test_builtin_examples_parse():
    for name in examples.names():
        sf = parse_text(examples.get(name).text, origin=name)
        assert sf.plant is not None
        assert sf.exo is not None


def test_comments_and_blank_lines():
    text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
    sf = parse_text(text)
    assert expr.to_string(sf.plant.g) == "x1"


def test_unknown_section_rejected():
    with pytest.raises(SysFileError, match=r"unknown section"):
        parse_text(MINIMAL + "\n[bogus]\nk = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(SysFileError, match=r"unknown keys"):
        parse_text(MINIMAL.replace("g = x1", "g = x1\nextra = 2"))


def test_duplicate_section_rejected():
    with pytest.raises(SysFileError, match=r"duplicate section"):
        parse_text(MINIMAL + "\n[plant]\nn = 1\nf1 = 0\ng = x1\n")


def test_duplicate_key_rejected():
    with pytest.raises(SysFileError, match=r"duplicate key"):
        parse_text(MINIMAL.replace("n = 1", "n = 1\nn = 2"))


def test_content_before_section_rejected():
    with pytest.raises(SysFileError, match=r"before any section"):
        parse_text("n = 1\n" + MINIMAL)


def test_missing_equals_rejected():
    with pytest.raises(SysFileError, match=r"key = value"):
        parse_text(MINIMAL.replace("n = 1", "n 1"))


def test_error_messages_carry_location():
    with pytest.raises(SysFileError, match=r"myfile:2"):
        parse_text("[plant]\nnot a key value\n", origin="myfile")


def test_plant_requires_reference_and_exosystem():
    with pytest.raises(SysFileError, match=r"must appear together"):
        parse_text("[plant]\nn = 1\nf1 = 0\ng = x1\n")
    no_exo = MINIMAL.replace("[exosystem]\np = 1\ns1 = 0\n", "")
    with pytest.raises(SysFileError, match=r"requires \[exosystem\]"):
        parse_text(no_exo)
    with pytest.raises(SysFileError, match=r"\[immersion\] requires \[exosystem\]"):
        parse_text(_IMMERSION)


def test_missing_series_entry():
    with pytest.raises(SysFileError, match=r"missing 'f1'"):
        parse_text(MINIMAL.replace("f1 = -x1 + u", "f2 = -x1 + u"))


@pytest.mark.parametrize("edit, message", [
    (("tau1 = w1", "tau1 = w2"), "tau uses unknown variables ['w2']"),
    (("tau1 = w1", "tau1 = x1"), "tau uses unknown variables ['x1']"),
    (("tau1 = w1", "tau1 = w1 + 1"), "tau1(0) != 0"),
    (("phi1 = 0", "phi1 = w1"), "phi uses unknown variables ['w1']"),
    (("phi1 = 0", "phi1 = xi1 + 1"), "phi1(0) != 0"),
    (("lam = xi1", "lam = xi2"), "lambda uses unknown variables ['xi2']"),
    (("lam = xi1", "lam = cos(xi1)"), "lambda(0) != 0"),
])
def test_immersion_checked_in_its_section(edit, message):
    assert parse_text(MINIMAL + _IMMERSION, origin="f").immersion.p == 1
    with pytest.raises(SysFileError) as info:
        parse_text(MINIMAL + _IMMERSION.replace(*edit), origin="f")
    assert str(info.value) == f"f [immersion]: {message}"


@pytest.mark.parametrize("edit, section, message", [
    (("f1 = -x1 + u", "f1 = -x1 + u + 1"), "plant", "f1(0,0,0) != 0"),
    (("g = x1", "g = x1 + 1"), "plant", "g(0,0,0) != 0"),
    (("q = w1", "q = w1 + 1"), "plant", "q(0) != 0"),
    (("s1 = 0", "s1 = 1"), "exosystem", "s1(0) != 0"),
    (("pi1 = w1", "pi1 = w1 + 1"), "regulator_solution", "pi1(0) != 0"),
    (("gamma = w1", "gamma = cos(w1)"), "regulator_solution", "gamma(0) != 0"),
])
def test_origin_checked_in_its_section(edit, section, message):
    text = MINIMAL + "\n[regulator_solution]\npi1 = w1\ngamma = w1\n"
    assert parse_text(text, origin="f").regulator_solution.p == 1
    with pytest.raises(SysFileError) as info:
        parse_text(text.replace(*edit), origin="f")
    assert str(info.value) == f"f [{section}]: {message}"


_CONTROLLER = "\n[controller]\nnc = 1\nphi1 = 0\nlam = xi1\nbc = 1.0\n"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("key, section, line", [
    ("n", "plant", "n = 1"),
    ("p", "exosystem", "p = 1"),
    ("nc", "controller", "nc = 1"),
    ("nu", "immersion", "nu = 1"),
])
def test_dimension_must_be_positive(key, section, line, value):
    text = MINIMAL + _CONTROLLER + _IMMERSION
    assert parse_text(text, origin="f").controller.nc == 1
    with pytest.raises(SysFileError) as info:
        parse_text(text.replace(line, f"{key} = {value}"), origin="f")
    assert str(info.value) == (
        f"f [{section}]: '{key}' must be an integer >= 1, got {value}")


def test_dimension_must_be_an_integer():
    with pytest.raises(SysFileError) as info:
        parse_text(MINIMAL.replace("p = 1", "p = 1.5"), origin="f")
    assert str(info.value) == "f [exosystem]: 'p' must be an integer"


def test_bad_expression_reported_with_section():
    with pytest.raises(SysFileError, match=r"\[plant\]"):
        parse_text(MINIMAL.replace("f1 = -x1 + u", "f1 = -x1 + ("))


def test_controller_bc_count_mismatch():
    text = MINIMAL + "\n[controller]\nnc = 2\nphi1 = xi2\nphi2 = 0\nlam = xi1\nbc = 1.0\n"
    with pytest.raises(SysFileError, match=r"'bc' has 1 entries, expected 2"):
        parse_text(text)


def test_controller_bc_not_numeric():
    text = MINIMAL + "\n[controller]\nnc = 1\nphi1 = 0\nlam = xi1\nbc = xi1\n"
    with pytest.raises(SysFileError, match=r"comma-separated number list"):
        parse_text(text)


def test_regulator_solution_requires_plant():
    with pytest.raises(SysFileError):
        parse_text("[exosystem]\np = 1\ns1 = 0\n"
                   "[regulator_solution]\npi1 = 0\ngamma = 0\n")


def test_regulator_solution_radius_default_and_override():
    base = MINIMAL + "\n[regulator_solution]\npi1 = w1\ngamma = w1\n"
    assert parse_text(base).regulator_solution.radius == 0.3
    assert parse_text(base + "radius = 0.7\n").regulator_solution.radius == 0.7
    for bad in ("abc", "nan", "-1", "inf", "0"):
        with pytest.raises(SysFileError, match=r"\[regulator_solution\]: 'radius' must be"):
            parse_text(base + f"radius = {bad}\n")


def test_regulator_solution_uses_the_exosystem_dimension():
    exo10 = "[exosystem]\np = 10\n" + "".join(f"s{i} = 0\n" for i in range(1, 11))
    base = MINIMAL.split("[exosystem]")[0].replace("q = w1", "q = w10") + exo10
    sf = parse_text(base + "[regulator_solution]\npi1 = w10\ngamma = w10\n")
    assert sf.regulator_solution.p == 10
    with pytest.raises(SysFileError,
                       match=r"\[regulator_solution\]: gamma uses unknown variables \['w11'\]"):
        parse_text(base + "[regulator_solution]\npi1 = w10\ngamma = w11\n")


def test_params_must_be_numeric():
    with pytest.raises(SysFileError, match=r"values must be numbers"):
        parse_text("[params]\nC = forty\n")
    sf = parse_text("[params]\nC = 4e-5\nL = 0.004\n")
    assert sf.params == {"C": 4e-5, "L": 0.004}


def test_controller_section_round_trip():
    ctrl = ControllerModel.from_strings(
        ["xi2 - xi1^4", "-xi1^3"],
        "(xi1 + xi2 - xi1^4 + sin(xi1)) / (1 + xi1^2)",
        [-0.2, -0.02])
    text = controller_section(ctrl)
    sf = parse_text(text)
    back = sf.controller
    assert back.nc == 2
    assert back.Bc == ctrl.Bc
    assert [expr.to_string(e) for e in back.phi] == [expr.to_string(e) for e in ctrl.phi]
    assert expr.to_string(back.lam) == expr.to_string(ctrl.lam)


def test_write_controller(tmp_path):
    ctrl = ControllerModel.from_strings(["0"], "xi1", [0.125])
    path = tmp_path / "ctrl.sys"
    sysfile.write_controller(ctrl, path)
    sf = sysfile.parse_file(path)
    assert sf.controller.Bc == (0.125,)


def test_example_dump_round_trip():
    # merging the dumped text with an emitted controller parses back whole
    ex = examples.get("example52")
    ctrl = ControllerModel.from_strings(
        ["2*xi1 - 2*xi3", "xi1 - 2*xi3", "2*xi2"], "0.5*xi1 + xi2 + 0.5*xi3",
        [1.0, 2.0, 3.0])
    merged = ex.text + "\n" + controller_section(ctrl)
    sf = parse_text(merged)
    assert sf.controller is not None
    assert sf.immersion is not None


# every section, with one line a file may be edited in
_FULL = (MINIMAL + _CONTROLLER + _IMMERSION
         + "\n[regulator_solution]\npi1 = w1\ngamma = w1\n\n[params]\nC = 1\n")
_NO_PLANT = "[exosystem]\np = 1\ns1 = 0\n[regulator_solution]\npi1 = 0\ngamma = 0\n"


def _edit(*pairs):
    """_FULL with each (old, new) applied to the first occurrence of old."""
    text = _FULL
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


@pytest.mark.parametrize("text, message", [
    # lines
    pytest.param(_FULL + "[bogus]\n", "f:32: unknown section [bogus]", id="unknown-section"),
    pytest.param(_FULL + "[plant]\n", "f:32: duplicate section [plant]", id="duplicate-section"),
    pytest.param("n = 1\n" + _FULL, "f:1: content before any section header", id="before-header"),
    pytest.param(_edit(("n = 1", "n 1")), "f:3: expected 'key = value'", id="no-equals"),
    pytest.param(_edit(("g = x1", "g =")), "f:5: empty key or value", id="empty-value"),
    pytest.param(_edit(("g = x1", "= x1")), "f:5: empty key or value", id="empty-key"),
    pytest.param(_edit(("n = 1", "n = 1\nn = 2")), "f:4: duplicate key 'n'", id="duplicate-key"),
    # which sections need which
    pytest.param(_edit(("[reference]\nq = w1\n", "")),
                 "f: [plant] and [reference] must appear together", id="plant-alone"),
    pytest.param("[reference]\nq = 0\n",
                 "f: [plant] and [reference] must appear together", id="reference-alone"),
    pytest.param(_edit(("[exosystem]\np = 1\ns1 = 0\n", "")),
                 "f: [plant] requires [exosystem]", id="plant-needs-exosystem"),
    pytest.param(_IMMERSION, "f: [immersion] requires [exosystem]",
                 id="immersion-needs-exosystem"),
    pytest.param(_NO_PLANT, "f: [regulator_solution] requires [plant]",
                 id="regulator-solution-needs-plant"),
    # [exosystem]
    pytest.param(_edit(("p = 1", "p = one")), "f [exosystem]: 'p' must be an integer",
                 id="exosystem-p-text"),
    pytest.param(_edit(("s1 = 0", "s2 = 0")), "f [exosystem]: missing 's1'",
                 id="exosystem-missing"),
    pytest.param(_edit(("s1 = 0", "s1 = 0\ns2 = 0")), "f [exosystem]: unknown keys ['s2']",
                 id="exosystem-leftover"),
    pytest.param(_edit(("s1 = 0", "s1 = x1")),
                 "f [exosystem]: s uses unknown variables ['x1']", id="exosystem-build"),
    # [plant] and [reference]
    pytest.param(_edit(("n = 1\n", "")), "f [plant]: missing 'n'", id="plant-missing-n"),
    pytest.param(_edit(("n = 1", "n = -1")), "f [plant]: 'n' must be an integer >= 1, got -1",
                 id="plant-n-negative"),
    pytest.param(_edit(("f1 =", "f2 =")), "f [plant]: missing 'f1'", id="plant-missing-f"),
    pytest.param(_edit(("g = x1\n", "")), "f [plant]: missing 'g'", id="plant-missing-g"),
    pytest.param(_edit(("g = x1", "g = x1\nh = 1")), "f [plant]: unknown keys ['h']",
                 id="plant-leftover"),
    pytest.param(_edit(("q = w1", "r = w1")), "f [reference]: missing 'q'",
                 id="reference-missing-q"),
    pytest.param(_edit(("q = w1", "q = w1\nr = 1")), "f [reference]: unknown keys ['r']",
                 id="reference-leftover"),
    pytest.param(_edit(("f1 = -x1 + u", "f1 = 1.2.3")),
                 "f [plant]: bad number literal '1.2.3' (at offset 0)", id="plant-literal"),
    pytest.param(_edit(("q = w1", "q = w2")), "f [plant]: q uses unknown variables ['w2']",
                 id="plant-build-q"),
    pytest.param(_edit(("f1 = -x1 + u", "f1 = " + "(" * 3000 + "x1" + ")" * 3000)),
                 "f [plant]: maximum recursion depth exceeded", id="plant-deep"),
    # [controller]
    pytest.param(_edit(("nc = 1", "nc = 1.0")), "f [controller]: 'nc' must be an integer",
                 id="controller-nc-text"),
    pytest.param(_edit(("lam = xi1\nbc", "bc")), "f [controller]: missing 'lam'",
                 id="controller-missing-lam"),
    pytest.param(_edit(("bc = 1.0\n", "")), "f [controller]: missing 'bc'",
                 id="controller-missing-bc"),
    pytest.param(_edit(("bc = 1.0", "bc = 1, x")),
                 "f [controller]: 'bc' must be a comma-separated number list",
                 id="controller-bc-text"),
    pytest.param(_edit(("bc = 1.0", "bc = nan")), "f [controller]: 'bc' must be finite numbers",
                 id="controller-bc-nonfinite"),
    pytest.param(_edit(("bc = 1.0", "bc = 1, 2")),
                 "f [controller]: 'bc' has 2 entries, expected 1", id="controller-bc-count"),
    pytest.param(_edit(("bc = 1.0", "bc = 1.0\nextra = 1")),
                 "f [controller]: unknown keys ['extra']", id="controller-leftover"),
    pytest.param(_edit(("phi1 = 0", "phi1 = w1")),
                 "f [controller]: phi uses unknown variables ['w1']", id="controller-build"),
    # [immersion]
    pytest.param(_edit(("nu = 1\n", "")), "f [immersion]: missing 'nu'",
                 id="immersion-missing-nu"),
    pytest.param(_edit(("tau1 = w1\nphi1 = 0", "tau1 = w1")), "f [immersion]: missing 'phi1'",
                 id="immersion-missing-phi"),
    pytest.param(_edit(("tau1 = w1", "tau1 = w1\ntau2 = w1")),
                 "f [immersion]: unknown keys ['tau2']", id="immersion-leftover"),
    pytest.param(_edit(("tau1 = w1", "tau1 = w2")),
                 "f [immersion]: tau uses unknown variables ['w2']", id="immersion-build"),
    # [regulator_solution]
    pytest.param(_edit(("pi1 = w1\n", "")), "f [regulator_solution]: missing 'pi1'",
                 id="regulator-solution-missing-pi"),
    pytest.param(_edit(("gamma = w1\n", "")), "f [regulator_solution]: missing 'gamma'",
                 id="regulator-solution-missing-gamma"),
    pytest.param(_edit(("gamma = w1\n", "gamma = w1\nradius = -2\n")),
                 "f [regulator_solution]: 'radius' must be a finite positive number, got '-2'",
                 id="radius-negative"),
    pytest.param(_edit(("gamma = w1\n", "gamma = w1\nradius = big\n")),
                 "f [regulator_solution]: 'radius' must be a finite positive number, got 'big'",
                 id="radius-text"),
    pytest.param(_edit(("gamma = w1\n", "gamma = w1\npi2 = 0\n")),
                 "f [regulator_solution]: unknown keys ['pi2']",
                 id="regulator-solution-leftover"),
    pytest.param(_edit(("gamma = w1", "gamma = x1")),
                 "f [regulator_solution]: gamma uses unknown variables ['x1']",
                 id="regulator-solution-build"),
    # [params]
    pytest.param(_edit(("C = 1", "C = forty")), "f [params]: values must be numbers",
                 id="params-text"),
    # the order of the checks: sections in file-independent order, and in
    # a section the keys before the leftovers before the model
    pytest.param(_edit(("s1 = 0", "s2 = 0"), ("f1 =", "f2 =")), "f [exosystem]: missing 's1'",
                 id="exosystem-before-plant"),
    pytest.param(_edit(("g = x1", "g = x1\nh = 1"), ("q = w1", "r = w1")),
                 "f [plant]: unknown keys ['h']", id="plant-leftover-before-reference"),
    pytest.param(_edit(("g = x1", "g = x1\nh = 1"), ("q = w1", "q = w2")),
                 "f [plant]: unknown keys ['h']", id="plant-leftover-before-build"),
    pytest.param(_edit(("f1 = -x1 + u", "f1 = 1.2.3"), ("bc = 1.0\n", "")),
                 "f [plant]: bad number literal '1.2.3' (at offset 0)",
                 id="plant-before-controller"),
    pytest.param(_edit(("bc = 1.0", "bc = 1, 2\nextra = 1")),
                 "f [controller]: 'bc' has 2 entries, expected 1", id="bc-before-leftover"),
    pytest.param(_edit(("bc = 1.0", "bc = x\nextra = 1")),
                 "f [controller]: 'bc' must be a comma-separated number list",
                 id="bc-text-before-leftover"),
    pytest.param(_edit(("bc = 1.0\n", ""), ("nu = 1\n", "")), "f [controller]: missing 'bc'",
                 id="controller-before-immersion"),
    pytest.param(_edit(("nu = 1\n", ""), ("pi1 = w1\n", "")), "f [immersion]: missing 'nu'",
                 id="immersion-before-regulator-solution"),
    pytest.param(_NO_PLANT + _CONTROLLER.replace("bc = 1.0", "bc = 1, 2"),
                 "f [controller]: 'bc' has 2 entries, expected 1",
                 id="controller-before-requires-plant"),
    pytest.param(_edit(("gamma = w1\n", "gamma = w1\nradius = 0\nz = 1\n")),
                 "f [regulator_solution]: 'radius' must be a finite positive number, got '0'",
                 id="radius-before-leftover"),
    pytest.param(_edit(("gamma = w1\n", ""), ("C = 1", "C = forty")),
                 "f [regulator_solution]: missing 'gamma'", id="params-last"),
])
def test_rejection_messages_are_pinned(text, message):
    with pytest.raises(SysFileError) as info:
        parse_text(text, origin="f")
    assert str(info.value) == message
