"""The config readers state no default of their own: a key the file leaves
out takes the default of the type that takes it, or of ``_DEFAULTS`` when no
type takes it."""

import configparser
import dataclasses

import numpy as np
import pytest

from extinctlab import config
from extinctlab.cli import _parsed
from extinctlab.odi import OdiConfig
from extinctlab.profiles import OmegaProfile
from extinctlab.solver import ProblemSpec


def parse(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return parser


class TestRequiredKeysOnly:
    @pytest.mark.parametrize("keys,expected", [
        ("kind = power\nalpha = 1.5", OmegaProfile.power(1.5)),
        ("kind = log-power\nbeta = 2.0", OmegaProfile.log_power(2.0)),
        ("kind = constant", OmegaProfile.constant()),
        ("kind = log-singular", OmegaProfile.log_singular()),
    ], ids=["power", "log-power", "constant", "log-singular"])
    def test_profile(self, keys, expected):
        assert config.potential_from_config(parse("[profile]\n" + keys)).omega == expected

    def test_table_profile(self, tmp_path):
        s, w = [0.01, 0.1, 0.5], [0.1, 0.3, 0.6]
        np.savetxt(tmp_path / "omega.csv", np.column_stack([s, w]), delimiter=",")
        parser = parse("[profile]\nkind = table\ntable = omega.csv\n")
        got = config.potential_from_config(parser, tmp_path).omega
        assert _parsed(got) == _parsed(OmegaProfile.from_table(s, w))

    def test_problem(self):
        parser = parse("[profile]\nkind = constant\n[problem]\nq = 0.5\n")
        assert config.problem_from_config(parser) == ProblemSpec(
            q=0.5, potential=config.potential_from_config(parser))

    def test_odi(self):
        parser = parse("[profile]\nkind = constant\n[problem]\nq = 0.5\n[odi]\n")
        cfg, extras = config.odi_from_config(parser)
        assert cfg == OdiConfig(potential=config.potential_from_config(parser), q=0.5)
        assert extras == config._DEFAULTS["odi"]


#: keys that name no field of the type their reader builds, with what the
#: reader makes of them
_READ_INTO = {
    "table": "OmegaProfile.table_s and table_w, the columns of the file it names",
    "epsilon": "the ConstantPotential of potential = constant",
}
#: fields that no key of their section sets, with what sets them
_SET_OTHERWISE = {
    "ProblemSpec.seed": "--seed",
    "OdiConfig.potential": "[profile]",
    "OdiConfig.q": "[problem] q",
    "OdiConfig.dimension": "[problem] dimension",
    "OdiConfig.tau_max": "[problem] radius",
    "OmegaProfile.table_s": "[profile] table",
    "OmegaProfile.table_w": "[profile] table",
}
_SECTIONS = [
    ("problem", set(config._PROBLEM), ProblemSpec),
    ("odi", set(config._ODI), OdiConfig),
    ("profile", {"kind", "d0"}.union(*config._PROFILE.values()), OmegaProfile),
]


@pytest.mark.parametrize("section,keys,cls", _SECTIONS, ids=[s[0] for s in _SECTIONS])
class TestKeysAndFields:
    def test_every_key_has_one_home(self, section, keys, cls):
        fields = {f.name for f in dataclasses.fields(cls)}
        homeless = keys - fields - set(config._DEFAULTS[section]) - set(_READ_INTO)
        assert not homeless, f"[{section}] keys with no default: {sorted(homeless)}"

    def test_every_field_has_a_key(self, section, keys, cls):
        unset = [f.name for f in dataclasses.fields(cls) if f.compare
                 and f.name not in keys and f"{cls.__name__}.{f.name}" not in _SET_OTHERWISE]
        assert not unset, f"{cls.__name__} fields no [{section}] key sets: {unset}"


@pytest.mark.parametrize("problem", [
    "q = 0.5\ndimension = 1\npotential = profile\nu0 = 1.0\ncells = 2000\n"
    "dt = 1e-3\nhorizon = 2.5\n",
    "q = 0.3\ndimension = 3\nradius = 2\n",
], ids=["readme", "3d-radius-2"])
def test_odi_shape_is_the_problems(problem):
    # _SET_OTHERWISE's [problem] claims, checked on one parser
    parser = parse("[profile]\nkind = log-power\nbeta = 2.0\nomega0 = 1.0\ndelta = 0.5\n"
                   f"[problem]\n{problem}[odi]\ny0 = 1e-4\n")
    cfg, _ = config.odi_from_config(parser)
    spec = config.problem_from_config(parser)
    assert cfg.potential == spec.potential
    assert cfg.q == spec.q
    assert cfg.dimension == spec.dimension
    assert cfg.tau_max == spec.radius


def test_every_default_is_of_a_key():
    # [spectral] builds no type, so each of its keys has its default here
    assert set(config._DEFAULTS["spectral"]) == set(config._SPECTRAL)
    for section, keys, _ in _SECTIONS:
        assert set(config._DEFAULTS[section]) <= keys, section
