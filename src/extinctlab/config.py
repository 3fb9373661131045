"""Flat INI-style run configuration.

Sections: [profile] defines omega and the potential amplitude, [problem]
the parabolic run, [odi] the bound constants, [spectral] the scan ranges.
One table per section maps each key to its cast.  A reader casts every key
the file gives and passes on only those, so an absent key takes the default
of the type that takes it: ``ProblemSpec``, ``OdiConfig`` or
``OmegaProfile``.  ``_DEFAULTS`` holds the defaults of the keys that no type
takes.  Each section has one reader, which builds the type that checks it:
[profile] becomes a ``PotentialField``, and [problem] a ``ProblemSpec``
wherever it is read, so q is required there and bound, spectral and verify
reject what simulate rejects.  Unknown keys, [profile] keys that the chosen
kind does not read, and a [problem] epsilon without potential = constant
are rejected so silent typos cannot skew archived runs.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np

from .odi import OdiConfig
from .profiles import ConstantPotential, OmegaProfile, PotentialField
from .solver import ProblemSpec


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_PROFILE = {   # the keys each kind reads, besides kind and d0
    "power": {"alpha": float, "omega0": float, "delta": float, "s0": float},
    "log-power": {"beta": float, "omega0": float, "delta": float, "s0": float},
    "constant": {"omega0": float},
    "log-singular": {"kappa": float},
    "table": {"table": str, "delta": float, "s0": float},
}
_PROBLEM = {"q": float, "dimension": int, "radius": float, "potential": str,
            "epsilon": float, "u0": lambda v: v if v == "random" else float(v),
            "cells": int, "dt": float, "horizon": float, "extinction_rtol": float,
            "snapshot_every": int}
_ODI = {"y0": float, "gamma": float, "c0": float, "c4": float, "c7": float,
        "cbar": float, "max_rounds": int, "bound_factor": float}
_SPECTRAL = {"h_min": float, "h_max": float, "h_count": int, "cells": int,
             "k": float, "n_min": int, "n_max": int, "mu_n_max": int}

#: the defaults of the keys that no type takes, by section
_DEFAULTS = {
    "profile": {"d0": 1.0},
    "problem": {"potential": "profile"},
    "odi": {"max_rounds": 200, "bound_factor": 10.0},
    "spectral": {"h_min": 1e-3, "h_max": 1e-1, "h_count": 7, "cells": 3000,
                 "k": 1.0, "n_min": 2, "n_max": 40, "mu_n_max": 20},
}


def load_config(path) -> configparser.ConfigParser:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _section(parser, name, casts) -> dict:
    """The keys that [name] gives, each cast by ``casts``, which names every
    key the section may give."""
    if name not in parser:
        raise ConfigError(f"missing [{name}] section")
    sec = dict(parser[name])
    unknown = set(sec) - set(casts)
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    given = {}
    for key, text in sec.items():
        try:
            given[key] = casts[key](text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r}") from exc
    return given


def _required(given, key):
    """``given``'s value of ``key``, taken out of it."""
    if key not in given:
        raise ConfigError(f"missing required key {key!r}")
    return given.pop(key)


def potential_from_config(parser, base_dir=".") -> PotentialField:
    """[profile]: the omega of its kind, each key of which that kind reads,
    and the amplitude d0."""
    if "profile" not in parser:
        raise ConfigError("missing [profile] section")
    kind = _required(dict(parser["profile"]), "kind")
    if kind not in _PROFILE:
        raise ConfigError(f"unknown profile kind {kind!r}")
    given = _section(parser, "profile", _PROFILE[kind] | {"kind": str, "d0": float})
    del given["kind"]
    d0 = given.pop("d0", _DEFAULTS["profile"]["d0"])
    try:
        if kind == "power":
            omega = OmegaProfile.power(_required(given, "alpha"), **given)
        elif kind == "log-power":
            omega = OmegaProfile.log_power(_required(given, "beta"), **given)
        elif kind == "constant":
            omega = OmegaProfile.constant(**given)
        elif kind == "log-singular":
            omega = OmegaProfile.log_singular(**given)
        else:  # kind = table
            table_path = Path(base_dir) / _required(given, "table")
            if not table_path.is_file():
                raise ConfigError(f"profile table not found: {table_path}")
            data = np.loadtxt(table_path, delimiter=",")
            omega = OmegaProfile.from_table(data[:, 0], data[:, 1], **given)
        return PotentialField(d0, omega)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def problem_from_config(parser, base_dir=".") -> ProblemSpec:
    """[problem] as the ``ProblemSpec`` that checks it, for every subcommand
    that reads it."""
    given = _section(parser, "problem", _PROBLEM)
    pot_kind = given.pop("potential", _DEFAULTS["problem"]["potential"])
    if "epsilon" in given and pot_kind != "constant":
        raise ConfigError("'epsilon' in [problem] is read only with potential = constant")
    q = _required(given, "q")
    try:
        if pot_kind == "profile":
            potential = potential_from_config(parser, base_dir)
        elif pot_kind == "constant":
            potential = ConstantPotential(_required(given, "epsilon"))
        elif pot_kind == "zero":
            potential = ConstantPotential(0.0)
        else:
            raise ConfigError(f"unknown potential spec {pot_kind!r}")
        return ProblemSpec(q=q, potential=potential, **given)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def odi_from_config(parser, base_dir=".") -> tuple[OdiConfig, dict]:
    given = _section(parser, "odi", _ODI)
    extras = {key: given.pop(key, default) for key, default in _DEFAULTS["odi"].items()}
    spec = problem_from_config(parser, base_dir)
    potential = potential_from_config(parser, base_dir)
    try:
        cfg = OdiConfig(potential=potential, q=spec.q, dimension=spec.dimension,
                        tau_max=spec.radius, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not cfg.y0 < 1:
        raise ConfigError("need y0 < 1 for the extinction rounds")
    return cfg, extras


def spectral_from_config(parser, base_dir=".") -> dict:
    out = {**_DEFAULTS["spectral"], **_section(parser, "spectral", _SPECTRAL)}
    out["q"] = problem_from_config(parser, base_dir).q
    for ok, need in [(0 < out["h_min"] < out["h_max"] < math.inf,
                      "0 < h_min < h_max < inf"),
                     (out["h_count"] >= 1, "h_count >= 1"),
                     (out["cells"] >= 3, "cells >= 3"),
                     (0 < out["k"] < math.inf, "0 < k < inf"),   # NaN fails every check
                     (2 <= out["n_min"] <= out["n_max"], "2 <= n_min <= n_max"),
                     (0 <= out["mu_n_max"] <= 60, "0 <= mu_n_max <= 60")]:
        if not ok:
            raise ConfigError(f"need {need}")
    return out


def echo_config(parser) -> dict:
    """Plain dict image of the parsed config for the summary files."""
    return {name: dict(parser[name]) for name in parser.sections()}
