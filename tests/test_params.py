import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qram_bounds.lattice import LatticeError, LatticeSpec
from qram_bounds.params import (Conventions, HardwareParams, ParamsError,
                                checked_index, density, load_config, tau0)


def make_params(**overrides):
    base = dict(a=1e-6, delta_t=1e-3, g1=math.pi * 1e3, g2=math.pi * 1e3,
                lam=(1.0,), m=1.0, d=1)
    base.update(overrides)
    return HardwareParams(**base)


# Edits of TestConfigFile.GOOD (lambda = 1.0, 0.5 and nu = 2) and the one
# error each load names (nu = 1 is test_mismatch_reported). A config states
# nu; the record derives it from lam.
RANGE_REFUSALS = [
    ({"nu = 2": "nu = 0"}, "nonpositive interaction range"),
    ({"nu = 2": "nu = -1"}, "nonpositive interaction range"),
    ({"nu = 2": "nu = 3"}, "range/coupling length mismatch"),
    ({"lambda = 1.0, 0.5": "lambda = 1.0"}, "range/coupling length mismatch"),
    # two faults: the earlier invariant is the one named
    ({"nu = 2": "nu = 0", "lambda = 1.0, 0.5": "lambda = 1.0"},
     "nonpositive interaction range"),
    ({"nu = 2": "nu = 0", "a = 1e-6": "a = 0"}, "nonpositive lattice spacing"),
    ({"nu = 2": "nu = 0", "d = 2": "d = 4"}, "dimension must be 1, 2, or 3"),
    ({"nu = 2": "nu = 3", "m = 1.0": "m = nan"}, "non-finite site mass m"),
    ({"nu = 2": "nu = two"},
     "malformed config value: invalid literal for int() with base 10: 'two'"),
]


class TestValidate:
    def test_valid_params_returned_unchanged(self):
        p = make_params()
        assert (p.a, p.g1, p.lam, p.d, p.nu) == (1e-6, math.pi * 1e3, (1.0,), 1, 1)

    def test_zero_spacing(self):
        with pytest.raises(ParamsError, match="nonpositive lattice spacing"):
            make_params(a=0.0)

    def test_length_mismatch(self):
        # the range is the number of couplings, so no record can mismatch
        # them; a config file that states another nu is refused on loading
        assert make_params(lam=(1.0, 2.0)).nu == 2
        assert replace(make_params(), lam=(1.0, 0.0, 3.0)).nu == 3
        with pytest.raises(TypeError):
            make_params(nu=1)

    @pytest.mark.parametrize("field,value,message", [
        ("delta_t", -1.0, "nonpositive clock cycle"),
        ("g1", 0.0, "nonpositive coupling"),
        ("g2", -2.0, "nonpositive coupling"),
        ("m", 0.0, "nonpositive site mass"),
        ("c_max", 0.0, "nonpositive speed cap"),
        ("lam", (-1.0,), "negative spring constant"),
        ("lam", (0.0,), "all spring constants zero"),
        ("d", 4, "dimension must be"),
        ("lam", (), "nonpositive interaction range"),
    ])
    def test_first_violation_named(self, field, value, message):
        with pytest.raises(ParamsError, match=message):
            make_params(**{field: value})

    @pytest.mark.parametrize("field", ["a", "delta_t", "g1", "g2", "m", "c_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_named(self, field, value):
        # the mass is checked with the couplings, in the lattice's words
        name = "site mass m" if field == "m" else field
        with pytest.raises(ParamsError, match=f"^non-finite {name}$"):
            make_params(**{field: value})

    @pytest.mark.parametrize("lam", [(math.nan,), (1.0, math.inf)])
    def test_non_finite_spring_constant_named(self, lam):
        with pytest.raises(ParamsError, match="non-finite spring constant in lam"):
            make_params(lam=lam)

    @pytest.mark.parametrize("field", ["g1", "g2"])
    def test_coupling_too_small_for_tau0_named(self, field):
        with pytest.raises(ParamsError, match=f"non-finite tau0 .* coupling "
                                              f"{field}=5e-324$"):
            make_params(**{field: 5e-324})

    @given(a=st.floats(1e-9, 1e3), m=st.floats(1e-9, 1e3),
           lam1=st.floats(1e-9, 1e3), d=st.sampled_from([1, 2, 3]))
    def test_idempotent(self, a, m, lam1, d):
        p = make_params(a=a, m=m, lam=(lam1,), d=d)
        assert replace(p) == p


class TestTau0:
    def test_unit_couplings(self):
        assert tau0(math.pi, math.pi) == pytest.approx(2.0, rel=1e-15)

    def test_kilohertz_couplings(self):
        assert tau0(math.pi * 1e3, math.pi * 1e3) == pytest.approx(2e-3, rel=1e-15)

    def test_asymmetric(self):
        assert tau0(2 * math.pi, math.pi) == pytest.approx(1.5, rel=1e-15)

    @given(g1=st.floats(1e-6, 1e6), g2=st.floats(1e-6, 1e6))
    def test_symmetric(self, g1, g2):
        assert tau0(g1, g2) == tau0(g2, g1)

    @given(g1=st.floats(1e-3, 1e3), g2=st.floats(1e-3, 1e3),
           scale=st.floats(1.01, 10.0))
    def test_strictly_decreasing(self, g1, g2, scale):
        assert tau0(g1 * scale, g2) < tau0(g1, g2)
        assert tau0(g1, g2 * scale) < tau0(g1, g2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParamsError, match="nonpositive coupling"):
            tau0(0.0, 1.0)

    @pytest.mark.parametrize("g1,g2,named", [
        (5e-324, 1.0, "g1=5e-324"),
        (1.0, 5e-324, "g2=5e-324"),
        (3e-308, 2e-308, "g2=2e-308"),     # each term finite, their sum not
        (math.nan, 1.0, "g1=nan"),
        (1.0, math.nan, "g2=nan"),
    ])
    def test_non_finite_result_names_the_coupling(self, g1, g2, named):
        with pytest.raises(ParamsError, match=f"non-finite tau0 .* {named}$"):
            tau0(g1, g2)

    def test_config_with_tiny_coupling_names_it(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text(TestConfigFile.GOOD.replace("g1 = 3141.592653589793",
                                                    "g1 = 5e-324"))
        with pytest.raises(ParamsError, match="coupling g1=5e-324"):
            load_config(path)


class TestDensity:
    @pytest.mark.parametrize("m,a,d,expected", [
        (1.0, 1.0, 1, 1.0),
        (2.0, 0.5, 1, 4.0),
        (1.0, 1e-6, 3, 1e18),
    ])
    def test_values(self, m, a, d, expected):
        assert density(make_params(m=m, a=a, d=d)) == pytest.approx(expected, rel=1e-12)

    def test_refuses_density_out_of_float_range(self):
        # a^1 = 5e-324 is in range; 1 / 5e-324 is not
        with pytest.raises(ParamsError, match=re.escape(
                "density m/a^d = 1/4.94066e-324^1 overflows a float")):
            density(make_params(m=1.0, a=5e-324, d=1))


class TestConventions:
    def test_defaults_validate(self):
        conv = Conventions()
        assert conv.log_base == "natural"
        assert conv.depth_exponent == 2

    def test_log_base_2(self):
        assert Conventions(log_base="2").log_base == "2"
        assert Conventions(log_base="two").log_base == "2"

    def test_natural_log(self):
        assert Conventions(log_base="natural").log_base == "natural"
        assert Conventions(log_base="e").log_base == "natural"

    def test_rejects_unknown_base(self):
        with pytest.raises(ParamsError, match="log base"):
            Conventions(log_base="10")

    def test_rejects_negative_exponent(self):
        with pytest.raises(ParamsError, match="depth exponent"):
            Conventions(depth_exponent=-1)

    def test_explicit_velocity_accepted(self):
        conv = Conventions(velocity_source=6000.0)
        assert conv.velocity_source == 6000.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_explicit_velocity(self, value):
        with pytest.raises(ParamsError, match="non-finite explicit velocity"):
            Conventions(velocity_source=value)

    def test_rejects_unknown_source(self):
        with pytest.raises(ParamsError, match="velocity source"):
            Conventions(velocity_source="warp")


class TestConstructionBoundary:
    """A record is checked whenever it is built, ``dataclasses.replace``
    included, and the message names the first violated invariant."""

    @pytest.mark.parametrize("changes,message", [
        (dict(a=math.nan), "non-finite a"),
        (dict(delta_t=math.inf), "non-finite delta_t"),
        (dict(g1=-math.inf), "non-finite g1"),
        (dict(g2=math.nan), "non-finite g2"),
        (dict(m=math.inf), "non-finite site mass m"),
        (dict(c_max=math.nan), "non-finite c_max"),
        (dict(lam=(math.inf,)), "non-finite spring constant in lam"),
        (dict(a=0.0), "nonpositive lattice spacing"),
        (dict(delta_t=0.0), "nonpositive clock cycle time"),
        (dict(g1=-1.0), "nonpositive coupling"),
        (dict(g2=0.0), "nonpositive coupling"),
        (dict(g1=5e-324), "non-finite tau0 = pi/g1 + pi/g2 from coupling g1=5e-324"),
        (dict(g2=5e-324), "non-finite tau0 = pi/g1 + pi/g2 from coupling g2=5e-324"),
        (dict(m=-1.0), "nonpositive site mass"),
        (dict(c_max=0.0), "nonpositive speed cap"),
        (dict(lam=(-1.0,)), "negative spring constant"),
        (dict(lam=(0.0,)), "all spring constants zero"),
        (dict(d=0), "dimension must be 1, 2, or 3"),
        (dict(d=4), "dimension must be 1, 2, or 3"),
        # no couplings: the range nu = len(lam) is 0
        (dict(lam=()), "nonpositive interaction range"),
        # a bad coupling after the first is named, with no range field to match
        (dict(lam=(1.0, -2.0)), "negative spring constant"),
        (dict(lam=(0.0, 0.0, 0.0)), "all spring constants zero"),
        # two faults: the earlier invariant is the one named, and the
        # couplings and mass are checked first
        (dict(a=0.0, m=0.0), "nonpositive site mass"),
        (dict(m=math.nan, a=0.0), "non-finite site mass m"),
        (dict(d=4, lam=()), "dimension must be 1, 2, or 3"),
        # after the two-fault cases so that their ids keep their index
        (dict(lam=(1.0, 0.5, math.inf)), "non-finite spring constant in lam"),
    ])
    def test_replace_refuses_every_params_invariant(self, changes, message):
        valid = make_params()
        with pytest.raises(ParamsError, match=f"^{re.escape(message)}$"):
            replace(valid, **changes)

    @pytest.mark.parametrize("d,lam,m,message", [
        (0, (1.0,), 1.0, "dimension must be 1, 2, or 3"),
        (2.0, (1.0,), 1.0, "dimension must be 1, 2, or 3"),
        (True, (1.0,), 1.0, "dimension must be 1, 2, or 3"),
        (1, (1.0,), math.nan, "non-finite site mass m"),
        (1, (1.0, -math.inf), 1.0, "non-finite spring constant in lam"),
        (1, (1.0,), -1.0, "nonpositive site mass"),
        (1, (), 1.0, "nonpositive interaction range"),
        (1, (1.0, -2.0), 1.0, "negative spring constant"),
        (1, (0.0, -0.0), 1.0, "all spring constants zero"),
        # several faults: the first of the list above is named
        (4, (), math.nan, "dimension must be 1, 2, or 3"),
        (1, (math.nan, -1.0), 0.0, "non-finite spring constant in lam"),
        (1, (), -1.0, "nonpositive site mass"),
        (1, (-1.0, 0.0), 1.0, "negative spring constant"),
    ])
    def test_both_records_share_the_coupling_check(self, d, lam, m, message):
        # one check per invariant: a hardware record and a lattice spec
        # refuse the same couplings with the same words
        with pytest.raises(ParamsError, match=f"^{re.escape(message)}$"):
            make_params(d=d, lam=lam, m=m)
        with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
            LatticeSpec(d=d, L=8, lam=lam, m=m)

    @pytest.mark.parametrize("changes,message", [
        (dict(log_base="10"), "unknown log base '10' (use 'natural' or '2')"),
        (dict(log_base=2.5), "unknown log base 2.5 (use 'natural' or '2')"),
        (dict(depth_exponent=-1), "depth exponent must be an integer >= 0"),
        (dict(depth_exponent=1.5), "depth exponent must be an integer >= 0"),
        (dict(velocity_source=math.nan), "non-finite explicit velocity nan"),
        (dict(velocity_source=-math.inf), "non-finite explicit velocity -inf"),
        (dict(velocity_source=-6000.0), "nonpositive explicit velocity"),
        (dict(velocity_source=0), "nonpositive explicit velocity"),
        (dict(velocity_source="warp"), "unknown velocity source 'warp'"),
        (dict(depth_exponent=-1, velocity_source="warp"),
         "depth exponent must be an integer >= 0"),
    ])
    def test_replace_refuses_every_conventions_invariant(self, changes, message):
        with pytest.raises(ParamsError, match=f"^{re.escape(message)}$"):
            replace(Conventions(), **changes)

    @pytest.mark.parametrize("spelling,base", [
        ("natural", "natural"), ("e", "natural"), ("E", "natural"),
        ("2", "2"), ("two", "2"), ("Two", "2"),
    ])
    def test_log_base_spelled_one_way(self, spelling, base):
        assert Conventions(log_base=spelling).log_base == base
        assert replace(Conventions(log_base="2"), log_base=spelling).log_base == base

    def test_explicit_velocity_stored_as_float(self):
        conv = replace(Conventions(), velocity_source=6000)
        assert conv.velocity_source == 6000.0
        assert type(conv.velocity_source) is float


class TestCheckedIndex:
    @pytest.mark.parametrize("value", [7, np.int64(7), np.uint8(7)])
    def test_returns_a_python_int(self, value):
        out = checked_index(ParamsError, "k", value, 0)
        assert out == 7 and type(out) is int

    @pytest.mark.parametrize("value,message", [
        (True, "k must be an integer, got True"),
        (np.True_, f"k must be an integer, got {np.True_!r}"),
        (2.0, "k must be an integer, got 2.0"),
        ("2", "k must be an integer, got '2'"),
        (None, "k must be an integer, got None"),
        (-1, "k must be >= 0, got -1")])
    def test_refuses_by_name_with_the_given_error(self, value, message):
        with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
            checked_index(LatticeError, "k", value, 0)

    def test_no_lower_bound_by_default(self):
        assert checked_index(ParamsError, "k", -2 ** 70) == -2 ** 70


class TestConfigFile:
    GOOD = """\
# hardware operating point
a = 1e-6
delta_t = 1e-3
g1 = 3141.592653589793
g2 = 3141.592653589793
lambda = 1.0, 0.5
m = 1.0
d = 2
nu = 2
c_max = 3e8
"""

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text(self.GOOD)
        p = load_config(path)
        assert p.lam == (1.0, 0.5)
        assert p.d == 2
        assert p.c_max == 3e8

    def test_c_max_defaults(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text("\n".join(l for l in self.GOOD.splitlines()
                                  if not l.startswith("c_max")))
        assert load_config(path).c_max == 3e8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text(self.GOOD + "alpha = 2.0\n")
        with pytest.raises(ParamsError, match="unknown config key"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParamsError, match="config not found"):
            load_config(tmp_path / "nope.cfg")

    def test_missing_keys_reported(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text("a = 1e-6\n")
        with pytest.raises(ParamsError, match="missing config keys"):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text(self.GOOD.replace("a = 1e-6", "a = 0"))
        with pytest.raises(ParamsError, match="nonpositive lattice spacing"):
            load_config(path)

    def test_mismatch_reported(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text(self.GOOD.replace("nu = 2", "nu = 1"))
        with pytest.raises(ParamsError, match="range/coupling length mismatch"):
            load_config(path)

    @pytest.mark.parametrize("edits,message", RANGE_REFUSALS)
    def test_range_refused_by_name(self, edits, message, tmp_path):
        text = self.GOOD
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "hw.cfg"
        path.write_text(text)
        with pytest.raises(ParamsError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_range_is_the_number_of_couplings(self, tmp_path):
        path = tmp_path / "hw.cfg"
        path.write_text(self.GOOD.replace("lambda = 1.0, 0.5", "lambda = 1, 0, 2")
                        .replace("nu = 2", "nu = 3"))
        assert load_config(path).nu == 3
