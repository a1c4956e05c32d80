"""Experiment configuration: a flat ``key = value`` format with ``[section]``
headers, hash comments, quoted expression strings, and comma-separated lists.

Each key is declared once, on its ``*Config`` dataclass field: ``_key``
gives its codec kind in ``_CODECS`` and, for ``lambda``, its file name; the
key table ``_SCHEMA`` is read from the fields.  The parsed configuration
round-trips: ``parse_config(emit_config(cfg))`` reproduces ``cfg`` exactly.
``_validate``, the one semantic check, reads each rule from its owner (basis
families, ``TensorDomain``, the reactions, ``check_epsilon``, ``semigroup``,
``check_damping``, ``REFERENCE_REFINEMENT``) and reports a fault at its key,
also in a value the command line puts in its place.  Builders turn a
configuration into the domain, coefficient, source, reaction, and space
objects of the library.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .coefficients import (VALIDATE_GRID, CoefficientField, ReactionSpec, SourceField,
                           _interval_rule, _sample_axes, as_field, check_epsilon,
                           grid_values, structure_faults)
from .diagnostics import REFERENCE_REFINEMENT
from .elliptic import check_damping
from .expressions import ExpressionError, parse_expression
from .semigroup import check_resolvent_mu, evolution_faults
from .spaces import _FAMILIES, GalerkinSpace, TensorDomain, build_space

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "DiscretizationConfig",
    "StudyConfig",
    "OutputConfig",
    "ExperimentConfig",
    "parse_config",
    "emit_config",
    "load_config",
    "shipped_config_dir",
    "build_problem_objects",
    "make_space",
]

STUDY_KINDS = ("solve", "rate", "cea", "ap", "dq", "resolvent", "semigroup",
               "parabolic", "constants")

# beta word -> reaction of mu
_REACTIONS = {"zero": lambda mu: ReactionSpec.zero(),
              "linear": ReactionSpec.linear,
              "arctan": lambda mu: ReactionSpec.arctan()}


class ConfigError(ValueError):
    """Malformed configuration text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _key(kind, default=None, key=None):
    """A config field read and written by the codec ``kind``; ``key`` is its
    name in the file when that differs from the attribute."""
    return field(default=default, metadata={"kind": kind, "key": key})


@dataclass
class ProblemConfig:
    domain: tuple = _key("float_list4", (0.0, math.pi, 0.0, math.pi))
    a11: str = _key("expr", "1")
    a12: str = _key("expr", "0")
    a21: str = _key("expr", "0")
    a22: str = _key("expr", "1")
    a12_dx1: Optional[str] = _key("expr")
    a12_dx2: Optional[str] = _key("expr")
    a21_dx1: Optional[str] = _key("expr")
    a21_dx2: Optional[str] = _key("expr")
    lam: float = _key("float", 1.0, key="lambda")
    a22_x2_only: bool = _key("bool", True)
    offdiag_derivs_bounded: bool = _key("bool", True)
    offdiag_mixed_deriv_in_l2: bool = _key("bool", False)
    beta: str = _key("word", "zero")  # a word of _REACTIONS
    mu: float = _key("float", 1.0)
    f: str = _key("expr", "0")
    f_dx1: Optional[str] = _key("expr")
    f_grad_x1_in_l2: bool = _key("bool", False)
    f_slices_vanish_x1: bool = _key("bool", False)


@dataclass
class DiscretizationConfig:
    basis1: str = _key("word", "sine")
    m1: int = _key("int", 8)
    basis2: str = _key("word", "sine")
    m2: int = _key("int", 8)
    quad_order: int = _key("int", 4)


@dataclass
class StudyConfig:
    kind: str = _key("word", "solve")
    epsilon: float = _key("float", 0.5)
    epsilons: tuple = _key("float_list", (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625))
    check_bound: bool = _key("bool", True)
    sizes: tuple = _key("int_list", (2, 4, 8, 16))
    mu: float = _key("float", 1.0)
    T: float = _key("float", 1.0)
    stepper: str = _key("word", "be")
    steps: int = _key("int", 256)
    yosida_mu: float = _key("float", 1.0)
    damping: float = _key("float", 0.5)
    mus: tuple = _key("float_list", (1.0, 10.0, 100.0))
    source: Optional[str] = _key("expr")  # time-dependent source expression
    u0: Optional[str] = _key("expr")      # parabolic initial state expression
    u0_eps_coeff: float = _key("float", 0.0)  # u0(eps) = (1 + coeff * eps) u0
    tol: float = _key("float", 1e-2)
    export: Optional[str] = _key("word")  # lattice export file name for solve


@dataclass
class OutputConfig:
    directory: str = _key("word", "out")
    formats: tuple = _key("word_list", ("csv", "json"))


@dataclass
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    study: StudyConfig = field(default_factory=StudyConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {"problem": ProblemConfig, "discretization": DiscretizationConfig,
             "study": StudyConfig, "output": OutputConfig}

# section -> file key -> (attribute, codec kind), in field order
_SCHEMA = {section: {f.metadata["key"] or f.name: (f.name, f.metadata["kind"])
                     for f in fields(cls)}
           for section, cls in _SECTIONS.items()}


def _parse_bool(text):
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text):
    value = math.pi if text == "pi" else float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# scalar kind -> (parser, writer); a parser raises ValueError on bad text.
# A "<kind>_list" value is comma-separated scalars, "float_list4" four floats;
# an "expr" value is stored as the text between its double quotes.
_CODECS = {
    "float": (_parse_float, lambda value: repr(float(value))),
    "int": (int, lambda value: str(int(value))),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "word": (str, str),
}


def _parse_value(kind, text, line, col):
    text = text.strip()
    if kind == "expr":
        if not (len(text) >= 2 and text[0] == '"' and text[-1] == '"'):
            raise ConfigError("expression values must be double-quoted", line, col)
        inner = text[1:-1]
        try:
            parse_expression(inner)
        except ExpressionError as exc:
            raise ConfigError(f"bad expression {inner!r}: {exc}",
                              line, col + exc.column)
        return inner
    scalar, listed, _ = kind.partition("_list")
    parse = _CODECS[scalar][0]
    try:
        value = (tuple(parse(p.strip()) for p in text.split(",")) if listed
                 else parse(text))
    except ValueError as exc:
        raise ConfigError(str(exc), line, col)
    if kind == "float_list4" and len(value) != 4:
        raise ConfigError("domain needs exactly four numbers a1,b1,a2,b2", line, col)
    return value


def _strip_comment(raw: str) -> str:
    out = []
    in_quote = False
    for ch in raw:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse and check config text; ``overrides`` maps ``(section,
    attribute)`` to a value that replaces the file's before the checks."""
    cfg = ExperimentConfig()
    section = None
    where = {}  # (section, attribute) -> (line, column) of its key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno,
                                  indent + len(stripped))
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno, indent)
            section = name
            continue
        if section is None:
            raise ConfigError("key outside of any [section]", lineno, indent)
        if "=" not in stripped:
            raise ConfigError("expected key = value", lineno, indent)
        key, _, value = stripped.partition("=")
        key = key.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno, indent)
        attr, kind = schema[key]
        if (section, attr) in where:
            raise ConfigError(f"key {key!r} given twice in [{section}] (first on "
                              f"line {where[(section, attr)][0]})", lineno, indent)
        col = line.index("=") + 2
        setattr(getattr(cfg, section), attr, _parse_value(kind, value, lineno, col))
        where[(section, attr)] = (lineno, indent)
    if not where:
        raise ConfigError("config sets no keys", 1, 1)
    for (section, attr), value in (overrides or {}).items():
        setattr(getattr(cfg, section), attr, value)
    _validate(cfg, where)
    return cfg


def _validate(cfg: ExperimentConfig, where: dict):
    """Semantic checks, each reported at the line and column of the key at
    fault; a key left at its default is reported at line 1."""

    def error(message, section, attr):
        return ConfigError(message, *where.get((section, attr), (1, 1)))

    def checked(section, attr, check, *args):
        """``check(*args)``, a ValueError it raises reported at the key."""
        try:
            return check(*args)
        except ValueError as exc:
            raise error(str(exc), section, attr)

    st = cfg.study
    if st.kind not in STUDY_KINDS:
        raise error(f"unknown study kind {st.kind!r}; expected one of "
                    + ", ".join(STUDY_KINDS), "study", "kind")
    for attr, values in (("epsilon", (st.epsilon,)), ("epsilons", st.epsilons)):
        for eps in values:
            checked("study", attr, check_epsilon, eps)
    for attr, message in evolution_faults(st):
        raise error(message, "study", attr)
    checked("study", "mu", check_resolvent_mu, st.mu)
    checked("study", "damping", check_damping, st.damping)
    if cfg.problem.beta not in _REACTIONS:
        raise error(f"unknown reaction {cfg.problem.beta!r}", "problem", "beta")
    checked("problem", "mu", _REACTIONS[cfg.problem.beta], cfg.problem.mu)
    for mu in st.mus:  # the reactions of the linear-reaction rate study
        checked("study", "mus", ReactionSpec.linear, mu)
    d = cfg.discretization
    for attr in ("basis1", "basis2"):
        if getattr(d, attr) not in _FAMILIES:
            raise error("basis kinds must be 'sine' or 'q1'",
                        "discretization", attr)
    # the sizes of a study set both directions
    for section, attr, kinds in (("discretization", "m1", (d.basis1,)),
                                 ("discretization", "m2", (d.basis2,)),
                                 ("study", "sizes", (d.basis1, d.basis2))):
        family = max((_FAMILIES[k] for k in kinds), key=lambda f: f.least_m)
        value = getattr(getattr(cfg, section), attr)
        for m in value if attr == "sizes" else (value,):
            if m < family.least_m:
                raise error(f"{attr} must be >= {family.least_m} for a "
                            f"{family.kind} basis, got {m}", section, attr)
    family = max((_FAMILIES[d.basis1], _FAMILIES[d.basis2]),
                 key=lambda f: f.least_order)
    if d.quad_order < family.least_order:
        raise error(f"quad_order must be >= {family.least_order} for a "
                    f"{family.kind} basis", "discretization", "quad_order")
    if cfg.problem.lam <= 0:
        raise error("lambda must be positive", "problem", "lam")
    export = cfg.study.export
    if export is not None and (Path(export).name != export or export == ".."):
        raise error("export must be a file name in the output directory, "
                    f"got {export!r}", "study", "export")
    for word in cfg.output.formats:
        if word not in ("csv", "json"):
            raise error(f"unknown output format {word!r}; expected csv or json",
                        "output", "formats")
    domain = checked("problem", "domain", TensorDomain,
                     cfg.problem.domain[:2], cfg.problem.domain[2:])
    # a Cea or AP study nests each size in the last size refined once
    for kind, side in ((d.basis1, domain.omega1), (d.basis2, domain.omega2)):
        fine = _FAMILIES[kind](side, st.sizes[-1]).refined(REFERENCE_REFINEMENT)
        for m in st.sizes:
            if not _FAMILIES[kind](side, m).is_nested_in(fine):
                raise error(f"a {kind} basis of size {m} is not nested in the "
                            f"reference size {fine.m}, the last size refined once",
                            "study", "sizes")
    # [problem] expressions and u0 are functions of x1 and x2 alone (t is the
    # time of the parabolic source).  Coefficients and their declared
    # partials must be finite on the sample grid of CoefficientField.validate,
    # which would reject the same values without the key's position (the
    # ledger samples the partials of a12 too); the source, its x1-partial and
    # the initial state on the Gauss grid of integrate_on_domain, which takes
    # their norms, so a source finite there (sin(x1)/x1) is accepted.
    sides = domain.omega1, domain.omega2
    sample = _sample_axes(domain, VALIDATE_GRID)
    gauss = [_interval_rule(side)[0] for side in sides]
    sampled = {}  # coefficient -> its values on the sample grid
    parsed = {}  # key -> its expression
    for what, section, attrs, axes in (
            ("coefficient", "problem", ("a11", "a12", "a21", "a22"), sample),
            ("coefficient derivative", "problem",
             ("a12_dx1", "a12_dx2", "a21_dx1", "a21_dx2"), sample),
            ("source", "problem", ("f", "f_dx1"), gauss),
            ("initial state", "study", ("u0",), gauss)):
        for attr in attrs:
            text = getattr(getattr(cfg, section), attr)
            expr = parsed[attr] = None if text is None else parse_expression(text)
            if expr is not None and not expr.variables <= {"x1", "x2"}:
                raise error(f"{what} {attr} may depend on x1 and x2 only",
                            section, attr)
            if expr is not None:
                with np.errstate(all="ignore"):
                    values = grid_values(lambda u, v: expr(x1=u, x2=v), *axes)
                if not np.all(np.isfinite(values)):
                    raise error(f"{what} {attr} is not finite on the domain",
                                section, attr)
                if what == "coefficient":
                    sampled[attr] = values
    # ellipticity and the x2-only a22, on the samples of the finite check
    for attr, message in structure_faults(
            [sampled[a] for a in ("a11", "a12", "a21", "a22")],
            cfg.problem.lam, cfg.problem.a22_x2_only):
        raise error(message, "problem", attr)
    # the declared vanishing x1-slices of f, on the samples of its x1 edges
    # where f is finite there
    if cfg.problem.f_slices_vanish_x1:
        f = parsed["f"]
        with np.errstate(all="ignore"):
            values = np.abs(grid_values(lambda u, v: f(x1=u, x2=v), *sample))
        finite = np.isfinite(values)
        edges = values[[0, -1]][finite[[0, -1]]]
        peak = np.max(edges, initial=0.0)
        if peak > 1e-12 * max(1.0, np.max(values[finite], initial=0.0)):
            raise error(f"f declared to vanish at the x1 endpoints but reaches "
                        f"{peak:.3g} there", "problem", "f_slices_vanish_x1")


def _emit_value(kind, value) -> str:
    if kind == "expr":
        return f'"{value}"'
    scalar, listed, _ = kind.partition("_list")
    write = _CODECS[scalar][1]
    return ", ".join(map(write, value)) if listed else write(value)


def emit_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        holder = getattr(cfg, section)
        for key, (attr, kind) in schema.items():
            value = getattr(holder, attr)
            if value is None:
                continue
            lines.append(f"{key} = {_emit_value(kind, value)}")
        lines.append("")
    return "\n".join(lines)


def load_config(path, overrides=None) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read(), overrides)


def shipped_config_dir() -> Path:
    """Directory holding the experiment configs installed with the package."""
    return Path(str(importlib.resources.files("anisolab").joinpath("configs")))


def _field_from_key(expr_text: Optional[str], dx1=None, dx2=None, label=""):
    if expr_text is None:
        return None
    return as_field(parse_expression(expr_text),
                    dx1=parse_expression(dx1) if dx1 is not None else None,
                    dx2=parse_expression(dx2) if dx2 is not None else None,
                    label=label or expr_text)


def build_problem_objects(cfg: ExperimentConfig):
    """Domain, coefficients, source, and reaction from a configuration;
    ``parse_config`` has checked the coefficients on their samples."""
    p = cfg.problem
    domain = TensorDomain(p.domain[:2], p.domain[2:])
    A = CoefficientField(
        a11=_field_from_key(p.a11, label="a11"),
        a12=_field_from_key(p.a12, p.a12_dx1, p.a12_dx2, label="a12"),
        a21=_field_from_key(p.a21, p.a21_dx1, p.a21_dx2, label="a21"),
        a22=_field_from_key(p.a22, label="a22"),
        lam=p.lam,
        a22_depends_only_on_x2=p.a22_x2_only,
        offdiag_derivs_bounded=p.offdiag_derivs_bounded,
        offdiag_mixed_deriv_in_l2=p.offdiag_mixed_deriv_in_l2,
    )
    source = SourceField(
        f=_field_from_key(p.f, label="f"),
        dx1=_field_from_key(p.f_dx1, label="f_dx1"),
        grad_x1_in_l2=p.f_grad_x1_in_l2,
        slices_vanish_x1=p.f_slices_vanish_x1,
    )
    reaction = _REACTIONS[p.beta](p.mu)
    reaction.validate()
    return domain, A, source, reaction


def make_space(cfg: ExperimentConfig, domain: TensorDomain,
               m1: Optional[int] = None, m2: Optional[int] = None) -> GalerkinSpace:
    d = cfg.discretization
    return build_space(domain, d.basis1, d.m1 if m1 is None else m1,
                       d.basis2, d.m2 if m2 is None else m2, d.quad_order)
