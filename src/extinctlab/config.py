"""Flat INI-style run configuration.

Sections: [profile] defines omega and the potential amplitude, [problem]
the parabolic run, [odi] the bound constants, [spectral] the scan ranges.
Unknown keys, [profile] keys that the chosen kind does not read, and a
[problem] epsilon without potential = constant are rejected so silent typos
cannot skew archived runs.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from .odi import OdiConfig
from .profiles import ConstantPotential, OmegaProfile, PotentialField
from .solver import ProblemSpec


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


_PROFILE_KEYS = {   # the keys each kind reads, besides kind and d0
    "power": {"alpha", "omega0", "delta", "s0"},
    "log-power": {"beta", "omega0", "delta", "s0"},
    "constant": {"omega0"},
    "log-singular": {"kappa"},
    "table": {"table", "delta", "s0"},
}
_PROBLEM_KEYS = {"q", "dimension", "radius", "potential", "epsilon", "u0",
                 "cells", "dt", "horizon", "extinction_rtol", "snapshot_every"}
_ODI_KEYS = {"y0", "gamma", "c0", "c4", "c7", "cbar", "max_rounds",
             "bound_factor"}
_SPECTRAL_KEYS = {"h_min", "h_max", "h_count", "cells", "k", "n_min", "n_max",
                  "mu_n_max"}


def load_config(path) -> configparser.ConfigParser:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parser


def _section(parser, name, allowed) -> dict:
    if name not in parser:
        raise ConfigError(f"missing [{name}] section")
    sec = dict(parser[name])
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    return sec


_REQUIRED = object()   # default of a key that must be given


def _get(sec, key, cast, default=_REQUIRED):
    """``cast`` of a given key, ``default`` of a missing one."""
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return cast(sec[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {sec[key]!r}") from exc


def _problem_shape(prob, q_default=_REQUIRED) -> tuple[float, int, float]:
    """(q, dimension, radius) of [problem], checked once for every reader."""
    if "epsilon" in prob and prob.get("potential", "profile") != "constant":
        raise ConfigError("'epsilon' in [problem] is read only with potential = constant")
    q = _get(prob, "q", float, q_default)
    dimension = _get(prob, "dimension", int, 1)
    radius = _get(prob, "radius", float, 1.0)
    for ok, need in [(0 < q < 1, "0 < q < 1"),   # NaN fails every check
                     (dimension in (1, 2, 3), "dimension 1, 2 or 3"),
                     (radius > 0, "radius > 0")]:
        if not ok:
            raise ConfigError(f"need {need}")
    return q, dimension, radius


def _profile_section(parser) -> tuple[str, dict]:
    """The kind of [profile] and its keys, each of which that kind reads."""
    if "profile" not in parser:
        raise ConfigError("missing [profile] section")
    kind = _get(parser["profile"], "kind", str)
    if kind not in _PROFILE_KEYS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    return kind, _section(parser, "profile", _PROFILE_KEYS[kind] | {"kind", "d0"})


def profile_from_config(parser, base_dir=".") -> OmegaProfile:
    kind, sec = _profile_section(parser)
    delta = _get(sec, "delta", float, 0.5)
    omega0 = _get(sec, "omega0", float, 1.0)
    s0 = _get(sec, "s0", float, None)
    try:
        if kind == "power":
            return OmegaProfile.power(_get(sec, "alpha", float), omega0, delta, s0)
        if kind == "log-power":
            return OmegaProfile.log_power(_get(sec, "beta", float), omega0, delta, s0)
        if kind == "constant":
            return OmegaProfile.constant(omega0)
        if kind == "log-singular":
            return OmegaProfile.log_singular(_get(sec, "kappa", float, 25.0))
        table_path = Path(base_dir) / _get(sec, "table", str)  # kind = table
        if not table_path.is_file():
            raise ConfigError(f"profile table not found: {table_path}")
        data = np.loadtxt(table_path, delimiter=",")
        return OmegaProfile.from_table(data[:, 0], data[:, 1], delta, s0)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def potential_from_config(parser, base_dir=".") -> PotentialField:
    d0 = _get(_profile_section(parser)[1], "d0", float, 1.0)
    try:
        return PotentialField(d0, profile_from_config(parser, base_dir))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def problem_from_config(parser, base_dir=".") -> ProblemSpec:
    sec = _section(parser, "problem", _PROBLEM_KEYS)
    pot_kind = _get(sec, "potential", str, "profile")
    if pot_kind == "profile":
        potential = potential_from_config(parser, base_dir)
    elif pot_kind == "constant":
        epsilon = _get(sec, "epsilon", float)
        try:
            potential = ConstantPotential(epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif pot_kind == "zero":
        potential = None
    else:
        raise ConfigError(f"unknown potential spec {pot_kind!r}")
    u0 = _get(sec, "u0", lambda v: v if v == "random" else float(v), 1.0)
    q, dimension, radius = _problem_shape(sec)
    try:
        return ProblemSpec(
            q=q, dimension=dimension, radius=radius,
            potential=potential,
            u0=u0,
            cells=_get(sec, "cells", int, 2000),
            dt=_get(sec, "dt", float, 1e-3),
            horizon=_get(sec, "horizon", float, 2.5),
            extinction_rtol=_get(sec, "extinction_rtol", float, 1e-10),
            snapshot_every=_get(sec, "snapshot_every", int, None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def odi_from_config(parser, base_dir=".", overrides=None) -> tuple[OdiConfig, dict]:
    sec = _section(parser, "odi", _ODI_KEYS)
    prob = _section(parser, "problem", _PROBLEM_KEYS)
    extras = {
        "max_rounds": _get(sec, "max_rounds", int, 200),
        "bound_factor": _get(sec, "bound_factor", float, 10.0),
    }
    kwargs = {
        "y0": _get(sec, "y0", float, 1e-4),
        "gamma": _get(sec, "gamma", float, 1.0),
        "c0": _get(sec, "c0", float, 1.0),
        "c4": _get(sec, "c4", float, 1.0),
        "c7": _get(sec, "c7", float, None),
        "cbar": _get(sec, "cbar", float, None),
    }
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    if kwargs["y0"] >= 1:
        raise ConfigError("need y0 < 1 for the extinction rounds")
    q, dimension, radius = _problem_shape(prob)
    try:
        cfg = OdiConfig(potential=potential_from_config(parser, base_dir),
                        q=q, dimension=dimension, tau_max=radius, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, extras


def spectral_from_config(parser) -> dict:
    sec = _section(parser, "spectral", _SPECTRAL_KEYS)
    q = _problem_shape(dict(parser["problem"]), 0.5)[0] if "problem" in parser else 0.5
    out = {
        "h_min": _get(sec, "h_min", float, 1e-3),
        "h_max": _get(sec, "h_max", float, 1e-1),
        "h_count": _get(sec, "h_count", int, 7),
        "cells": _get(sec, "cells", int, 3000),
        "K": _get(sec, "k", float, 1.0),
        "n_min": _get(sec, "n_min", int, 2),
        "n_max": _get(sec, "n_max", int, 40),
        "mu_n_max": _get(sec, "mu_n_max", int, 20),
        "q": q,
    }
    for ok, need in [(0 < out["h_min"] < out["h_max"], "0 < h_min < h_max"),
                     (out["h_count"] >= 1, "h_count >= 1"),
                     (out["cells"] >= 3, "cells >= 3"),
                     (out["K"] > 0, "k > 0"),   # NaN fails every check
                     (2 <= out["n_min"] <= out["n_max"], "2 <= n_min <= n_max"),
                     (0 <= out["mu_n_max"] <= 60, "0 <= mu_n_max <= 60")]:
        if not ok:
            raise ConfigError(f"need {need}")
    return out


def echo_config(parser) -> dict:
    """Plain dict image of the parsed config for the summary files."""
    return {name: dict(parser[name]) for name in parser.sections()}
