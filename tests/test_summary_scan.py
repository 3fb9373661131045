"""Every number a summary emits can say something about the profile.

The scan reads the runs of the Baseline family and of the named configs of
tests/family.py (``cli_runs``).  Each scalar leaf of a ``summary_*.json``
results block, named ``<subcommand>.<key>[.<key>]``, must do one of three
things:

- echo an input: on every run that emits it, it equals the value that the
  config readers give that input, a default included (``_ECHOES``);
- move: it takes at least two values over the runs that emit it;
- sit on ``_ALLOWED``, which says why it may do neither.

A field that does none of them says nothing.  It leaves ``src/`` with the
work that fills it, or a config that moves it joins ``family.NAMED``.  A counter
that guards a failure mode (a clip, a cap, a skip) stays, and a named
config makes it non-zero.
"""

import json

from extinctlab.config import load_config, odi_from_config

#: fields that echo an input, each with the name of the value it echoes:
#: an ``OdiConfig`` field or a key of ``odi_from_config``'s extras
_ECHOES = {
    "bound.constants.c0": "c0",
    "bound.constants.c4": "c4",
    "bound.constants.c7": "c7",
    "bound.constants.cbar": "cbar",
    "bound.constants.gamma": "gamma",
    "bound.constants.y0": "y0",
    "bound.simulation_check.factor": "bound_factor",
}

#: fields that neither echo an input nor move, each with the reason it stays
_ALLOWED: dict[str, str] = {}


def _leaves(block: dict, prefix: str):
    for key, value in block.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}.{key}")
        else:
            yield f"{prefix}.{key}", value


def emitted(cli_runs) -> dict[str, list[tuple[str, object]]]:
    """{field: [(run name, value)]} over every run that emits the field."""
    fields = {}
    for name, run in cli_runs.items():
        for command, results in run.results.items():
            for field, value in _leaves(results, command):
                fields.setdefault(field, []).append((name, value))
    return fields


def _inputs(run) -> dict:
    """The values the config readers give a run's [odi] and [problem]."""
    cfg, extras = odi_from_config(load_config(run.config), run.config.parent)
    return {**vars(cfg), **extras}


def _moves(values) -> bool:
    # as JSON, so that true, 1 and 1.0 are three values
    return len({json.dumps(v) for _, v in values}) >= 2


def silent_fields(cli_runs, allowed=_ALLOWED) -> list[str]:
    """The fields that neither echo an input, nor move, nor are allowed."""
    return sorted(field for field, values in emitted(cli_runs).items()
                  if field not in _ECHOES and field not in allowed and not _moves(values))


def test_every_field_echoes_moves_or_is_allowed(cli_runs):
    silent = silent_fields(cli_runs)
    assert not silent, "fields that say nothing: " + ", ".join(silent)


def test_echoes_equal_their_inputs(cli_runs):
    fields = emitted(cli_runs)
    wrong = [f"{field} on {name}: {value!r}"
             for field, key in _ECHOES.items() for name, value in fields[field]
             if value != _inputs(cli_runs[name])[key]]
    assert not wrong, "echoes that differ from their input: " + "; ".join(wrong)


def test_scan_allow_list_is_current(cli_runs):
    fields = emitted(cli_runs)
    assert set(_ECHOES) | set(_ALLOWED) <= set(fields), "listed fields no run emits"
    assert set(_ALLOWED) <= set(silent_fields(cli_runs, allowed={}))


def test_restated_bound_is_gone(cli_runs):
    # simulation_check.bound was total_bound again
    assert "bound.simulation_check.bound" not in emitted(cli_runs)
    assert "bound.simulation_check.extinction_time" in emitted(cli_runs)


def test_falling_ramp_counted(cli_runs):
    # power alpha = 5: s(tau) = tau^4 / omega(tau) = 1/tau falls on every
    # ledger row at tau > 0; every Baseline ramp rises
    fields = dict(emitted(cli_runs)["simulate.fitted_constants.ramp_falling_rows"])
    assert fields.pop("power-5") == 31
    assert set(fields.values()) == {0}
