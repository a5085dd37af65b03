"""Configuration ingestion: strict schema, defaults, round-trips."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squid_horizon import bias, circuit, config, lattice
from squid_horizon.errors import ConfigError, ParseError, UnknownKey


@st.composite
def valid_documents(draw, max_cells=2 ** 63 - 1):
    """A configuration document with every key drawn from its valid
    domain, so that from_dict accepts it."""
    positive = st.floats(min_value=0.0, max_value=1e150, exclude_min=True)
    nonnegative = st.floats(min_value=0.0, max_value=1e150)
    return {
        "junction": {"critical_current": draw(positive),
                     "capacitance": draw(positive),
                     "normal_resistance": draw(st.none() | positive)},
        "squid": {"loop_inductance": draw(nonnegative)},
        "array": {"n_cells": draw(st.integers(2, max_cells)),
                  "cell_length": draw(positive),
                  "ground_capacitance": draw(positive),
                  "environment_impedance": draw(nonnegative)},
        "pulse": {"amplitude": draw(st.floats(0.0, 0.2499)),
                  "dc_offset": draw(st.floats(0.0, 0.2499)),
                  "velocity": draw(nonnegative),
                  "steepness": draw(positive),
                  "front_position": draw(st.floats(-1e300, 1e300)),
                  "broadening": draw(nonnegative),
                  "shape": draw(st.sampled_from(["tanh", "gaussian"]))},
        "solver": {"n_steps": draw(st.integers(1, 2 ** 63 - 1)),
                   "dt": draw(st.none() | positive),
                   "courant_fraction": draw(
                       st.floats(0.0, 0.5, exclude_min=True)),
                   "boundary": draw(st.sampled_from(
                       ["reflecting", "absorbing"])),
                   "record_every": draw(st.integers(0, 2 ** 63 - 1)),
                   "current_dependent_inductance": draw(st.booleans()),
                   "check_every": draw(st.integers(1, 2 ** 63 - 1))},
        "audit": {"max_signal_frequency": draw(positive)},
        "output": {"directory": draw(st.none() | st.text(max_size=12)),
                   "emit": draw(st.lists(
                       st.sampled_from(["csv", "svg", "bin"]),
                       max_size=4))},
    }


class TestDefaults:
    def test_shipped_file_matches_builtin(self):
        assert config.load_config(config.defaults_path()) == \
            config.default_config()

    def test_shipped_file_is_canonical_serialization(self):
        cfg = config.default_config()
        assert config.defaults_path().read_text() == config.dumps_config(cfg)

    def test_reference_device_values(self):
        cfg = config.default_config()
        assert cfg.junction.critical_current == 2.0e-6
        assert cfg.array.ground_capacitance == 5.0e-17
        assert cfg.array.cell_length == 2.5e-7
        plasma = circuit.effective_plasma_frequency(cfg.squid, 0.0)
        assert plasma / (2.0 * math.pi) == pytest.approx(1.0e12, rel=1e-9)

    def test_junction_shortcut(self):
        cfg = config.default_config()
        assert cfg.junction is cfg.squid.junction


class TestSchema:
    def test_sections_cover_every_dataclass_field(self):
        sections = {"junction": circuit.JunctionParams,
                    "squid": circuit.SquidParams,
                    "array": circuit.ArrayParams,
                    "pulse": bias.FluxPulse,
                    "solver": lattice.SolverConfig,
                    "output": config.OutputConfig}
        for name, cls in sections.items():
            fields = {f.name for f in dataclasses.fields(cls)} - {"junction"}
            assert set(config._SCHEMA[name]) == fields, name
        assert set(config._SCHEMA) == set(sections) | {"audit"}
        assert set(config._SCHEMA["audit"]) == {"max_signal_frequency"}

    def test_null_only_where_the_field_is_optional(self):
        # The Optional fields of the section dataclasses take null; every
        # other key of the shipped file refuses it.
        nullable = {("junction", "normal_resistance"), ("solver", "dt"),
                    ("output", "directory")}
        defaults = json.loads(config.defaults_path().read_text())
        for section, keys in defaults.items():
            for key in keys:
                text = json.dumps({section: {key: None}})
                if (section, key) in nullable:
                    assert config.loads_config(text) == \
                        config.default_config()
                else:
                    with pytest.raises(ConfigError, match="%s.%s"
                                       % (section, key)):
                        config.loads_config(text)


class TestStrictParsing:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError):
            config.load_config(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "array": {\n    "n_cells": 10,,\n  }\n}\n')
        with pytest.raises(ParseError, match=r"line 3"):
            config.load_config(path)

    def test_misspelled_key_suggests_fix(self):
        with pytest.raises(UnknownKey, match="velocity"):
            config.loads_config('{"pulse": {"velocty": 1.0}}')

    def test_misspelled_section_suggests_fix(self):
        with pytest.raises(UnknownKey, match="pulse"):
            config.loads_config('{"pluse": {"velocity": 1.0}}')

    @pytest.mark.parametrize("text", [
        '{"array": {"n_cells": "4800"}}',
        '{"array": {"n_cells": true}}',
        '{"output": {"workers": 0}}',
        '{"output": {"emit": ["png"]}}',
        '{"solver": {"boundary": "open"}}',
        '{"solver": {"boundary": "driven"}}',
        '{"pulse": {"shape": 3}}',
        '{"audit": {"max_signal_frequency": -1.0}}',
        '{"junction": {"critical_current": NaN}}',
        '{"pulse": {"velocity": Infinity}}',
        pytest.param('{"pulse": {"velocity": 1e308}}',
                     id="broadening-times-velocity-overflows"),
        pytest.param('{"pulse": {"velocity": 1%s}}' % ("0" * 400),
                     id="integer-beyond-float-range"),
        pytest.param('{"array": {"n_cells": 1%s}}' % ("0" * 30),
                     id="integer-beyond-int64"),
        '["not", "an", "object"]',
        '{"pulse": 3}',
    ])
    def test_bad_values_rejected(self, text):
        with pytest.raises(ConfigError):
            config.loads_config(text)

    def test_domain_validation_names_section(self):
        # 0.3 + 0.25 reaches the half-quantum pole; the pulse constructor
        # refuses and the config layer adds the section context.
        with pytest.raises(ConfigError, match="pulse"):
            config.loads_config(
                '{"pulse": {"amplitude": 0.3, "dc_offset": 0.25}}')

    def test_partial_override_keeps_defaults(self):
        cfg = config.loads_config('{"pulse": {"dc_offset": 0.1}}')
        base = config.default_config()
        assert cfg.pulse.dc_offset == 0.1
        assert cfg.pulse.velocity == base.pulse.velocity
        assert cfg.array == base.array


class TestRoundTrip:
    def test_dump_and_parse_identical(self):
        cfg = config.default_config()
        again = config.loads_config(config.dumps_config(cfg))
        assert again == cfg

    def test_roundtrip_after_override(self, tmp_path):
        cfg = config.apply_override(config.default_config(),
                                    {"array.ground_capacitance": 1.0e-16})
        path = tmp_path / "cfg.json"
        path.write_text(config.dumps_config(cfg))
        assert config.load_config(path) == cfg

    @settings(derandomize=True, database=None, deadline=None)
    @given(doc=valid_documents())
    def test_random_valid_config_roundtrips(self, doc):
        # from_dict accepts the document; dumps_config must then parse back
        # to an equal configuration and serialise to the same text a second
        # time.
        cfg = config.from_dict(doc)
        text = config.dumps_config(cfg)
        again = config.loads_config(text)
        assert again == cfg
        assert config.dumps_config(again) == text

    def test_dict_form_is_json_clean(self):
        text = json.dumps(config.config_to_dict(config.default_config()))
        assert "NaN" not in text


class TestOverrides:
    def test_resolve_path(self):
        assert config.resolve_path("pulse.dc_offset") == ("pulse", "dc_offset")

    @pytest.mark.parametrize("path", [
        "pulse", "pulse.dc_offset.extra", "nope.dc_offset", "pulse.nope"])
    def test_bad_paths_rejected(self, path):
        with pytest.raises(ConfigError):
            config.resolve_path(path)

    def test_apply_override_changes_one_field(self):
        base = config.default_config()
        cfg = config.apply_override(base, {"solver.n_steps": 77})
        assert cfg.solver.n_steps == 77
        assert cfg.pulse == base.pulse
        assert base.solver.n_steps == 5000

    def test_apply_override_still_validates(self):
        with pytest.raises(ConfigError):
            config.apply_override(config.default_config(),
                                  {"pulse.amplitude": 0.7})
