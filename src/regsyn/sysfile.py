"""Plain-text system definition files.

UTF-8 key-value text split into bracketed sections.  Recognized sections
and keys:

    [plant]               n, f1..fn, g
    [exosystem]           p, s1..sp
    [reference]           q
    [controller]          nc, phi1..phinc, lam, bc (comma-separated finite numbers)
    [immersion]           nu, tau1..taunu, phi1..phinu, lam
    [regulator_solution]  pi1..pin, gamma, radius (optional, in [1e-100, 1e100])
    [params]              free numeric keys (boost converter parameters)

Values are expression strings or numbers; `#` starts a comment.  Unknown
sections or keys are rejected so typos fail loudly.  parse_text reads every
section through one reader, _Section, which prefixes each error with
`<file> [<section>]: `, a model's failed derivative at the origin included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr
from .model import ControllerModel, ExosystemModel, PlantModel
from .regeq import ImmersionMap, RegulatorSolution


class SysFileError(Exception):
    pass


_SECTIONS = ("plant", "exosystem", "reference", "controller", "immersion",
             "regulator_solution", "params")


@dataclass(frozen=True)
class SystemFile:
    """Parsed system definition; optional parts are None when absent."""

    plant: PlantModel | None
    exo: ExosystemModel | None
    controller: ControllerModel | None
    immersion: ImmersionMap | None
    regulator_solution: RegulatorSolution | None
    params: dict | None


def _parse_sections(text, origin):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise SysFileError(f"{origin}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise SysFileError(f"{origin}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise SysFileError(f"{origin}:{lineno}: content before any section header")
        if "=" not in line:
            raise SysFileError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key or not value:
            raise SysFileError(f"{origin}:{lineno}: empty key or value")
        if key in sections[current]:
            raise SysFileError(f"{origin}:{lineno}: duplicate key '{key}'")
        sections[current][key] = value
    return sections


class _Section:
    """The keys of one section, taken one at a time; a key left untaken is
    an error."""

    def __init__(self, sections, name, origin):
        self.keys = dict(sections[name])
        self.where = f"{origin} [{name}]"

    def error(self, message):
        return SysFileError(f"{self.where}: {message}")

    def take(self, key):
        if key not in self.keys:
            raise self.error(f"missing '{key}'")
        return self.keys.pop(key)

    def dimension(self, key):
        """A dimension key (p, n, nc, nu): an integer >= 1."""
        try:
            v = int(self.take(key))
        except ValueError:
            raise self.error(f"'{key}' must be an integer") from None
        if v < 1:
            raise self.error(f"'{key}' must be an integer >= 1, got {v}")
        return v

    def series(self, prefix, count):
        return [self.take(f"{prefix}{i + 1}") for i in range(count)]

    def done(self):
        if self.keys:
            raise self.error(f"unknown keys {sorted(self.keys)}")

    def build(self, make, *args):
        """make(*args) once every key is taken, any error located here."""
        self.done()
        try:
            return make(*args)
        except Exception as exc:
            raise self.error(exc) from exc


def parse_text(text, origin="<string>") -> SystemFile:
    sections = _parse_sections(text, origin)
    has = sections.__contains__
    if has("plant") != has("reference"):
        raise SysFileError(f"{origin}: [plant] and [reference] must appear together")
    for name in ("plant", "immersion"):
        if has(name) and not has("exosystem"):
            raise SysFileError(f"{origin}: [{name}] requires [exosystem]")

    exo = plant = controller = immersion = regsol = params = p = None
    if has("exosystem"):
        sec = _Section(sections, "exosystem", origin)
        p = sec.dimension("p")
        exo = sec.build(ExosystemModel.from_strings, sec.series("s", p))

    if has("plant"):
        sec, ref = _Section(sections, "plant", origin), _Section(sections, "reference", origin)
        n = sec.dimension("n")
        f, g = sec.series("f", n), sec.take("g")
        sec.done()
        q = ref.take("q")
        ref.done()
        plant = sec.build(PlantModel.from_strings, f, g, q, p)

    if has("controller"):
        sec = _Section(sections, "controller", origin)
        nc = sec.dimension("nc")
        phi, lam = sec.series("phi", nc), sec.take("lam")
        try:
            bc = [float(v) for v in sec.take("bc").split(",")]
        except ValueError:
            raise sec.error("'bc' must be a comma-separated number list") from None
        if not all(map(math.isfinite, bc)):
            raise sec.error("'bc' must be finite numbers")
        if len(bc) != nc:
            raise sec.error(f"'bc' has {len(bc)} entries, expected {nc}")
        controller = sec.build(ControllerModel.from_strings, phi, lam, bc)

    if has("immersion"):
        sec = _Section(sections, "immersion", origin)
        nu = sec.dimension("nu")
        immersion = sec.build(ImmersionMap.from_strings, p, sec.series("tau", nu),
                              sec.series("phi", nu), sec.take("lam"))

    if has("regulator_solution"):
        if plant is None:
            raise SysFileError(f"{origin}: [regulator_solution] requires [plant]")
        sec = _Section(sections, "regulator_solution", origin)
        pi, gamma = sec.series("pi", plant.n), sec.take("gamma")
        given = sec.keys.pop("radius", "0.3")
        try:
            radius = float(given)
        except ValueError:
            radius = math.nan
        # in range, p * radius**2, the squared norm of a corner of the box
        # the samples are drawn from, neither overflows nor underflows
        if not 1e-100 <= radius <= 1e100:
            raise sec.error(f"'radius' must be a number in [1e-100, 1e100], got '{given}'")
        regsol = sec.build(RegulatorSolution.from_strings, p, pi, gamma, radius)

    if has("params"):
        sec = _Section(sections, "params", origin)
        try:
            params = {k: float(v) for k, v in sec.keys.items()}
        except ValueError:
            raise sec.error("values must be numbers") from None

    return SystemFile(plant, exo, controller, immersion, regsol, params)


def parse_file(path) -> SystemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:   # a directory, say, or not UTF-8
        raise SysFileError(
            f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_text(text, origin=str(path))


def controller_section(ctrl: ControllerModel, Bc=None) -> str:
    """Render a [controller] section that parse_text accepts back, with Bc
    in place of ctrl.Bc when given (so synthesize differentiates no second
    model)."""
    Bc = ctrl.Bc if Bc is None else Bc
    lines = ["[controller]", f"nc = {ctrl.nc}"]
    for i, pe in enumerate(ctrl.phi):
        lines.append(f"phi{i + 1} = {expr.to_string(pe)}")
    lines.append(f"lam = {expr.to_string(ctrl.lam)}")
    lines.append("bc = " + ", ".join(f"{b:.17g}" for b in Bc))
    return "\n".join(lines) + "\n"


def write_controller(ctrl: ControllerModel, path, Bc=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(controller_section(ctrl, Bc))
