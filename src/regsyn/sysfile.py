"""Plain-text system definition files.

UTF-8 key-value text split into bracketed sections.  Recognized sections
and keys:

    [plant]               n, f1..fn, g
    [exosystem]           p, s1..sp
    [reference]           q
    [controller]          nc, phi1..phinc, lam, bc (comma-separated list)
    [immersion]           nu, tau1..taunu, phi1..phinu, lam
    [regulator_solution]  pi1..pin, gamma, radius (optional)
    [params]              free numeric keys (boost converter parameters)

Values are expression strings or numbers; `#` starts a comment.  Unknown
sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _take_int(sec, key, origin):
    """A dimension key (p, n, nc, nu): an integer >= 1."""
    try:
        v = int(_take(sec, key, origin))
    except ValueError:
        raise SysFileError(f"{origin}: '{key}' must be an integer") from None
    if v < 1:
        raise SysFileError(f"{origin}: '{key}' must be an integer >= 1, got {v}")
    return v


def _take(sec, key, origin):
    if key not in sec:
        raise SysFileError(f"{origin}: missing '{key}'")
    return sec.pop(key)


def _take_radius(sec, origin):
    text = sec.pop("radius", "0.3")
    try:
        radius = float(text)
    except ValueError:
        radius = math.nan
    if not (math.isfinite(radius) and radius > 0):
        raise SysFileError(f"{origin}: 'radius' must be a finite positive number, got '{text}'")
    return radius


def _take_series(sec, prefix, count, origin):
    return [_take(sec, f"{prefix}{i + 1}", origin) for i in range(count)]


def _reject_leftovers(sec, origin):
    if sec:
        raise SysFileError(f"{origin}: unknown keys {sorted(sec)}")


def parse_text(text, origin="<string>") -> SystemFile:
    sections = _parse_sections(text, origin)
    has = sections.__contains__

    if has("plant") != has("reference"):
        raise SysFileError(f"{origin}: [plant] and [reference] must appear together")
    for name in ("plant", "immersion"):
        if has(name) and not has("exosystem"):
            raise SysFileError(f"{origin}: [{name}] requires [exosystem]")

    exo = None
    p = None
    if has("exosystem"):
        sec = dict(sections["exosystem"])
        where = f"{origin} [exosystem]"
        p = _take_int(sec, "p", where)
        s = _take_series(sec, "s", p, where)
        _reject_leftovers(sec, where)
        try:
            exo = ExosystemModel.from_strings(s)
        except Exception as exc:
            raise SysFileError(f"{where}: {exc}") from exc

    plant = None
    if has("plant"):
        psec = dict(sections["plant"])
        rsec = dict(sections["reference"])
        where = f"{origin} [plant]"
        n = _take_int(psec, "n", where)
        f = _take_series(psec, "f", n, where)
        g = _take(psec, "g", where)
        _reject_leftovers(psec, where)
        q = _take(rsec, "q", f"{origin} [reference]")
        _reject_leftovers(rsec, f"{origin} [reference]")
        try:
            plant = PlantModel.from_strings(f, g, q, p)
        except Exception as exc:
            raise SysFileError(f"{where}: {exc}") from exc

    controller = None
    if has("controller"):
        sec = dict(sections["controller"])
        where = f"{origin} [controller]"
        nc = _take_int(sec, "nc", where)
        phi = _take_series(sec, "phi", nc, where)
        lam = _take(sec, "lam", where)
        bc_text = _take(sec, "bc", where)
        try:
            bc = [float(v) for v in bc_text.split(",")]
        except ValueError:
            raise SysFileError(f"{where}: 'bc' must be a comma-separated number list") from None
        if len(bc) != nc:
            raise SysFileError(f"{where}: 'bc' has {len(bc)} entries, expected {nc}")
        _reject_leftovers(sec, where)
        try:
            controller = ControllerModel.from_strings(phi, lam, bc)
        except Exception as exc:
            raise SysFileError(f"{where}: {exc}") from exc

    immersion = None
    if has("immersion"):
        sec = dict(sections["immersion"])
        where = f"{origin} [immersion]"
        nu = _take_int(sec, "nu", where)
        tau = _take_series(sec, "tau", nu, where)
        phi = _take_series(sec, "phi", nu, where)
        lam = _take(sec, "lam", where)
        _reject_leftovers(sec, where)
        try:
            immersion = ImmersionMap.from_strings(p, tau, phi, lam)
        except Exception as exc:
            raise SysFileError(f"{where}: {exc}") from exc

    regsol = None
    if has("regulator_solution"):
        if plant is None:
            raise SysFileError(f"{origin}: [regulator_solution] requires [plant]")
        sec = dict(sections["regulator_solution"])
        where = f"{origin} [regulator_solution]"
        pi = _take_series(sec, "pi", plant.n, where)
        gamma = _take(sec, "gamma", where)
        radius = _take_radius(sec, where)
        _reject_leftovers(sec, where)
        try:
            regsol = RegulatorSolution.from_strings(p, pi, gamma, radius)
        except Exception as exc:
            raise SysFileError(f"{where}: {exc}") from exc

    params = None
    if has("params"):
        sec = sections["params"]
        try:
            params = {k: float(v) for k, v in sec.items()}
        except ValueError:
            raise SysFileError(f"{origin} [params]: values must be numbers") from None

    return SystemFile(plant, exo, controller, immersion, regsol, params)


def parse_file(path) -> SystemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read(), origin=str(path))


def controller_section(ctrl: ControllerModel) -> str:
    """Render a [controller] section that parse_text accepts back."""
    from . import expr
    lines = ["[controller]", f"nc = {ctrl.nc}"]
    for i, pe in enumerate(ctrl.phi):
        lines.append(f"phi{i + 1} = {expr.to_string(pe)}")
    lines.append(f"lam = {expr.to_string(ctrl.lam)}")
    lines.append("bc = " + ", ".join(f"{b:.17g}" for b in ctrl.Bc))
    return "\n".join(lines) + "\n"


def write_controller(ctrl: ControllerModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(controller_section(ctrl))
