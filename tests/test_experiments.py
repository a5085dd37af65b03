"""Bundled studies: reference artifacts, trapping verdicts, sweeps."""

import csv
import math
import warnings

import numpy as np
import pytest

from squid_horizon import circuit, cli, config, experiments, geometry
from squid_horizon.constants import FLUX_QUANTUM, RESISTANCE_QUANTUM
from squid_horizon.errors import (ConfigError, NoHorizon, NonFinite,
                                  ParseError, SquidHorizonError,
                                  UnknownKey)

from conftest import REF_CELL_SPEED

TRAVERSAL_TIME = experiments.TRAP_LAUNCH_CELLS * 2.5e-7 / 3897778.146429868


def reproduced(tmp_path_factory, target, emit="csv"):
    """The directory that `reproduce target` on the shipped configuration
    wrote its artifacts into."""
    out = tmp_path_factory.mktemp(target)
    assert cli.main(["reproduce", target, "--out", str(out),
                     "--emit", emit]) == 0
    return out


@pytest.fixture(scope="module")
def default_cfg():
    return config.default_config()


@pytest.fixture(scope="module")
def fig2_result(default_cfg, tmp_path_factory):
    return (experiments.reproduce_fig2(default_cfg),
            reproduced(tmp_path_factory, "fig2", "csv,svg"))


@pytest.fixture(scope="module")
def fig3_result(default_cfg, tmp_path_factory):
    return (experiments.reproduce_fig3(default_cfg),
            reproduced(tmp_path_factory, "fig3"))


@pytest.fixture(scope="module")
def budget_report(default_cfg, tmp_path_factory):
    return (experiments.temperature_budget(default_cfg),
            reproduced(tmp_path_factory, "budget"))


@pytest.fixture(scope="module")
def trap_pulse(default_cfg, tmp_path_factory):
    return (experiments.wavepacket_trapping(default_cfg),
            reproduced(tmp_path_factory, "trapping"))


@pytest.fixture(scope="module")
def trap_static(default_cfg):
    return experiments.wavepacket_trapping(default_cfg, scenario="static")


class TestFig2:
    def test_plateau_ratio(self, fig2_result):
        # sqrt(cos(0.2 pi)) behind the 0.2 Phi_0 step
        result, _ = fig2_result
        assert result.plateau_ratio == pytest.approx(0.8994537199739336,
                                                     rel=1e-9)

    def test_flow_marker(self, fig2_result):
        result, _ = fig2_result
        assert result.flow_ratio == pytest.approx(0.95, rel=1e-12)

    def test_single_horizon_on_the_front(self, fig2_result):
        result, _ = fig2_result
        assert result.horizon_position == pytest.approx(
            -1.01876624224012e-06, rel=1e-6)
        assert result.horizon_flux_fraction == pytest.approx(
            0.14172971084142186, rel=1e-6)

    def test_csv_layout(self, fig2_result):
        result, out = fig2_result
        with open(out / "fig2_profile.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["xi", "c_over_c0", "u_over_c0"]
        assert len(rows) == 1 + 1201
        first = [float(v) for v in rows[1]]
        last = [float(v) for v in rows[-1]]
        assert first[1] == pytest.approx(result.plateau_ratio, rel=1e-9)
        assert last[1] == pytest.approx(1.0, rel=1e-9)
        assert first[2] == last[2]

    def test_svg_emitted(self, fig2_result):
        _, out = fig2_result
        text = (out / "fig2_profile.svg").read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "horizon" in text
        assert text.count("<polyline") == 2

    def test_deterministic_bytes(self, tmp_path, fig2_result):
        _, out = fig2_result
        assert cli.main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2_profile.csv").read_bytes() == \
            (out / "fig2_profile.csv").read_bytes()

    def test_two_horizons_rejected(self):
        # The Gaussian bump crosses c = u on both of its flanks.
        cfg = config.apply_override(config.default_config(),
                                    {"pulse.shape": "gaussian"})
        with pytest.raises(NoHorizon, match="exactly one horizon, found 2"):
            experiments.reproduce_fig2(cfg)

    def test_no_emission_when_disabled(self, tmp_path):
        assert cli.main(["reproduce", "fig2", "--out", str(tmp_path),
                         "--emit", ""]) == 0
        assert list(tmp_path.iterdir()) == []


class TestFig3:
    def test_zero_flux_intercepts(self, fig3_result):
        result, _ = fig3_result
        expected = (0.6244929070725765, 0.8831663387878387,
                    1.9748199689692167, 2.7928171833614805)
        assert result.intercepts == pytest.approx(expected, rel=1e-9)
        # design table values
        assert result.intercepts == pytest.approx(
            (0.624, 0.883, 1.974, 2.791), rel=1e-2)

    def test_all_curves_monotone(self, fig3_result):
        result, _ = fig3_result
        assert np.all(np.diff(result.ratios, axis=1) > 0.0)

    def test_high_impedance_curves_stay_above_one(self, fig3_result):
        result, _ = fig3_result
        for i, intercept in enumerate(result.intercepts):
            if intercept > 1.0:
                assert result.ratios[i].min() > 1.0

    def test_flux_grid(self, fig3_result):
        result, _ = fig3_result
        assert result.flux_fractions[0] == 0.0
        assert result.flux_fractions[-1] == pytest.approx(0.49)
        assert len(result.flux_fractions) == 99

    def test_csv_layout(self, fig3_result):
        _, out = fig3_result
        with open(out / "fig3_impedance.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "flux_fraction"
        assert len(rows[0]) == 5
        assert len(rows) == 100


class TestBudget:
    def test_initial_temperature(self, budget_report):
        report, _ = budget_report
        assert report.initial_temperature == pytest.approx(
            0.12156624464538743, rel=1e-9)
        assert abs(report.initial_temperature - 0.121) < 0.002

    def test_decay_over_thousand_cells(self, budget_report):
        report, _ = budget_report
        assert report.temperature_ratio_1000 == pytest.approx(0.90, abs=1e-3)

    def test_photon_count(self, budget_report):
        report, _ = budget_report
        assert report.photon_count == pytest.approx(1.0822140544327208,
                                                    rel=1e-9)
        assert 0.7 <= report.photon_count <= 1.3

    def test_all_targets_met(self, budget_report):
        report, _ = budget_report
        assert report.targets_met == {"temperature": True, "decay": True,
                                      "count": True}

    def test_no_ratio_on_a_line_shorter_than_1000_cells(self):
        cfg = config.apply_override(config.default_config(),
                                    {"array.n_cells": 400,
                                     "output.emit": []})
        report = experiments.temperature_budget(cfg)
        assert math.isnan(report.temperature_ratio_1000)
        assert report.targets_met["decay"] is False

    def test_overflowing_line_is_non_finite(self):
        # L*C0 overflows and a/sqrt(L*C0) underflows to zero: the speed
        # ahead of the front is an error, not a line without a horizon,
        # and no RuntimeWarning is raised on the way.
        cfg = config.apply_override(config.default_config(), {
            "junction.critical_current": 1.27e-228,
            "squid.loop_inductance": 1e150,
            "array.ground_capacitance": 1.98e117,
            "array.cell_length": 5.2e-279})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=r"^cell speed a/sqrt\(L\*C0\)"
                               r" is zero or not finite"):
                experiments.temperature_budget(cfg)

    def test_traversal_time(self, budget_report, default_cfg):
        report, _ = budget_report
        expected = default_cfg.array.n_cells * \
            default_cfg.array.cell_length / default_cfg.pulse.velocity
        assert report.traversal_time == pytest.approx(expected, rel=1e-12)

    def test_trace_csv(self, budget_report):
        _, out = budget_report
        with open(out / "budget_trace.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,x_h,grad_c,T_H_K,power_W"


class TestTrapping:
    def test_forward_packet_behind_horizon_is_trapped(self, trap_pulse):
        report, _ = trap_pulse
        outcome = {o.name: o for o in report.outcomes}["forward_behind"]
        assert not outcome.crossed
        assert outcome.verdict == "trapped"
        assert outcome.crossing_time is None
        # the packet recedes from the horizon, beyond its launch distance
        launch = experiments.TRAP_LAUNCH_CELLS * 2.5e-7
        assert outcome.final_offset < -launch

    def test_backward_packet_ahead_crosses(self, trap_pulse):
        report, _ = trap_pulse
        outcome = {o.name: o for o in report.outcomes}["backward_ahead"]
        assert outcome.crossed
        assert outcome.verdict == "crossed"
        assert outcome.crossing_time < TRAVERSAL_TIME
        assert outcome.final_offset < 0.0

    def test_horizon_offset_matches_geometry(self, trap_pulse):
        report, _ = trap_pulse
        assert report.horizon_offset == pytest.approx(
            -1.01876624224012e-06, rel=1e-4)

    def test_static_control_crosses_both_ways(self, trap_static):
        report = trap_static
        assert report.horizon_offset is None
        by_name = {o.name: o for o in report.outcomes}
        assert by_name["forward_behind"].crossed
        assert by_name["backward_ahead"].crossed
        # mirror symmetry of the launch geometry
        assert by_name["forward_behind"].final_offset == pytest.approx(
            -by_name["backward_ahead"].final_offset, rel=1e-9)
        assert by_name["forward_behind"].crossing_time == pytest.approx(
            by_name["backward_ahead"].crossing_time, rel=1e-12)

    def test_trace_csv(self, trap_pulse):
        _, out = trap_pulse
        with open(out / "trapping_pulse.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["packet", "t", "xi_offset"]
        names = {row[0] for row in rows[1:]}
        assert names == {"forward_behind", "backward_ahead"}

    def test_unknown_scenario_rejected(self, default_cfg):
        with pytest.raises(ValueError):
            experiments.wavepacket_trapping(default_cfg, scenario="sideways")

    def test_pulse_scenario_needs_motion(self):
        cfg = config.apply_override(config.default_config(),
                                    {"pulse.velocity": 0.0})
        with pytest.raises(ValueError):
            experiments.wavepacket_trapping(cfg)


def separate_calls(names, cfg):
    """(outputs, error) of one sweep point whose outputs each make their
    own line_horizons or photons_per_pulse call, in request order."""
    flux_dc = cfg.pulse.dc_offset * FLUX_QUANTUM
    outputs = {}
    try:
        for name in names:
            if name == "cell_speed":
                value = circuit.cell_velocity(cfg.array, cfg.squid, flux_dc)
            elif name == "impedance_ratio":
                value = circuit.array_impedance(
                    cfg.array, cfg.squid, flux_dc) / RESISTANCE_QUANTUM
            elif name == "horizon_count":
                value = float(len(geometry.line_horizons(
                    cfg.array, cfg.squid, cfg.pulse)))
            elif name == "hawking_temperature":
                value = geometry.hawking_temperature(geometry.emitting_horizon(
                    geometry.line_horizons(cfg.array, cfg.squid, cfg.pulse)))
            else:
                value = geometry.photons_per_pulse(
                    cfg.array, cfg.squid, cfg.pulse).expected_count
            outputs[name] = value
    except (SquidHorizonError, ValueError, ArithmeticError) as exc:
        return {}, "%s: %s" % (type(exc).__name__, exc)
    return outputs, None


def _speed_at_fraction(fraction):
    # Line speed of the default device at the given flux fraction.
    cfg = config.default_config()
    return circuit.cell_velocity(cfg.array, cfg.squid,
                                 fraction * FLUX_QUANTUM)


# Overrides of the default configuration, one sweep point each.
SWEEP_CASES = {
    # One black horizon at every sample of the broadening traversal.
    "reference": {},
    # A still front: no budget, and no horizon.
    "still": {"pulse.velocity": 0.0},
    # Slower than either plateau: no crossing at any time.
    "no-crossing": {"pulse.velocity": 0.5 * REF_CELL_SPEED},
    # A Gaussian bump crossed at scaled coordinates -1 (white) and +1
    # (black).
    "bump": {"pulse.shape": "gaussian",
             "pulse.velocity": _speed_at_fraction(0.2 * math.exp(-0.5))},
    # A horizon at scaled coordinate 3 that broadening carries off the
    # line's comoving grid about two thirds of the way through the
    # traversal.
    "leaves-line": {"pulse.broadening": 1.0e5,
                    "pulse.velocity": _speed_at_fraction(
                        0.1 * (1.0 - math.tanh(3.0)))},
    # A flat front whose steepness underflows to zero by the end of the
    # traversal, so its traversal fails where its t = 0 scan does not.
    "pole": {"pulse.steepness": 1.0e-30, "pulse.broadening": 1.0e300},
    # A front so far out that the cell pitch is below the float spacing:
    # the comoving grid collapses onto the front's centre, and the front's
    # window is empty.
    "collapsed-grid": {"pulse.front_position": 1.0e20},
}


@pytest.fixture(scope="module")
def static_base():
    return config.apply_override(config.default_config(),
                                 {"pulse.amplitude": 0.0,
                                  "pulse.velocity": 0.0})


class TestSweep:
    def test_single_point_matches_direct(self, static_base):
        spec = experiments.SweepSpec(
            base=static_base, axes=(("pulse.dc_offset", (0.2,)),),
            outputs=("cell_speed",))
        result = experiments.run_sweep(spec)
        assert len(result.points) == 1
        cfg = config.apply_override(static_base, {"pulse.dc_offset": 0.2})
        direct = circuit.cell_velocity(
            cfg.array, cfg.squid,
            0.2 * 2.067833848461929e-15)
        assert result.points[0].outputs["cell_speed"] == pytest.approx(
            direct, rel=1e-12)

    def test_flux_sweep_follows_root_cosine(self, static_base):
        values = tuple(np.linspace(0.0, 0.45, 10))
        spec = experiments.SweepSpec(
            base=static_base, axes=(("pulse.dc_offset", values),),
            outputs=("cell_speed", "horizon_count"))
        result = experiments.run_sweep(spec)
        c0 = circuit.cell_velocity(static_base.array, static_base.squid, 0.0)
        for point, fraction in zip(result.points, values):
            law = c0 * math.sqrt(math.cos(math.pi * fraction))
            assert point.outputs["cell_speed"] == pytest.approx(law,
                                                                rel=1e-12)
            assert point.outputs["horizon_count"] == 0.0

    def test_grid_order_row_major(self, static_base):
        spec = experiments.SweepSpec(
            base=static_base,
            axes=(("pulse.dc_offset", (0.0, 0.2)),
                  ("array.ground_capacitance", (5e-17, 1e-17))),
            outputs=("cell_speed",))
        result = experiments.run_sweep(spec)
        assert [p.coordinates for p in result.points] == [
            (0.0, 5e-17), (0.0, 1e-17), (0.2, 5e-17), (0.2, 1e-17)]

    def test_point_failures_are_captured(self, default_cfg, tmp_path):
        # dc 0.45 plus the 0.2 amplitude crosses the half-quantum pole
        spec = experiments.SweepSpec(
            base=default_cfg, axes=(("pulse.dc_offset", (0.0, 0.45)),),
            outputs=("hawking_temperature",))
        result = experiments.run_sweep(spec)
        good, bad = result.points
        assert good.error is None
        assert good.outputs["hawking_temperature"] > 0.0
        assert bad.error is not None
        assert bad.outputs == {}
        path = tmp_path / "sweep.csv"
        experiments.write_sweep_csv(path, result)
        rows = list(csv.reader(open(path, newline="")))
        assert rows[0] == ["pulse.dc_offset", "hawking_temperature", "error"]
        assert rows[2][1] == ""
        assert "pulse" in rows[2][2]

    @pytest.mark.parametrize("axes,outputs", [
        ((("pulse.dc_offset", (0.1,)), ("array.n_cells", (100,)),
          ("squid.loop_inductance", (1e-11,))), ("cell_speed",)),
        ((("pulse.dc_offset", ()),), ("cell_speed",)),
        ((("pulse.bogus", (0.1,)),), ("cell_speed",)),
        ((("pulse.dc_offset", (0.1,)),), ("bogus_output",)),
        ((("pulse.dc_offset", (0.1,)),), ()),
        ((("pulse.amplitude", (0.1, 0.2)), ("pulse.amplitude", (0.3,))),
         ("cell_speed",)),
    ])
    def test_invalid_specs_rejected(self, static_base, axes, outputs):
        with pytest.raises(ConfigError):
            experiments.SweepSpec(base=static_base, axes=axes,
                                  outputs=outputs)

    def test_point_is_validated_as_a_whole(self, default_cfg):
        # (0.45, 0.0) is valid, but the amplitude alone on the 0.1 base
        # offset would put the peak flux past the half-quantum pole.
        base = config.apply_override(default_cfg, {"pulse.dc_offset": 0.1})
        spec = experiments.SweepSpec(
            base=base, axes=(("pulse.amplitude", (0.2, 0.45)),
                             ("pulse.dc_offset", (0.0,))),
            outputs=("cell_speed",))
        for point in experiments.run_sweep(spec).points:
            assert point.error is None
            assert point.outputs["cell_speed"] == pytest.approx(
                3897778.146429868, rel=1e-12)

    def test_load_sweep_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"base": {"pulse": {"amplitude": 0.0, "velocity": 0.0}},'
            ' "axes": [{"path": "pulse.dc_offset", "values": [0.0, 0.2]}],'
            ' "outputs": ["cell_speed"]}')
        spec = experiments.load_sweep(path)
        assert spec.axes == (("pulse.dc_offset", (0.0, 0.2)),)
        result = experiments.run_sweep(spec)
        assert result.points[0].outputs["cell_speed"] == pytest.approx(
            3897778.146429868, rel=1e-12)

    def test_horizon_outputs_share_one_scan(self, default_cfg, monkeypatch):
        from squid_horizon import geometry
        calls = []
        scan = geometry.line_horizons

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(geometry, "line_horizons", counted)
        spec = experiments.SweepSpec(
            base=default_cfg, axes=(("pulse.dc_offset", (0.0, 0.1)),),
            outputs=("horizon_count", "cell_speed", "hawking_temperature"))
        result = experiments.run_sweep(spec)
        assert len(calls) == 2
        for point in result.points:
            assert point.error is None
            assert point.outputs["horizon_count"] == 1.0
        assert result.points[0].outputs["hawking_temperature"] == \
            pytest.approx(0.12156624712116852, rel=1e-6)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    @pytest.mark.parametrize("outputs", [
        ("photon_count", "horizon_count", "hawking_temperature",
         "cell_speed"),
        ("hawking_temperature", "impedance_ratio", "cell_speed",
         "horizon_count", "photon_count"),
        ("horizon_count", "photon_count", "hawking_temperature"),
    ], ids=["photon-first", "photon-last", "photon-between"])
    def test_outputs_and_error_match_separate_calls(self, default_cfg,
                                                    case, outputs):
        cfg = config.apply_override(default_cfg, SWEEP_CASES[case])
        spec = experiments.SweepSpec(base=cfg, axes=(), outputs=outputs)
        point, = experiments.run_sweep(spec).points
        assert (point.outputs, point.error) == separate_calls(outputs, cfg)

    @pytest.mark.parametrize("case, photon_first, photon_last", [
        ("reference", None, None),
        ("bump", None, None),
        ("still", "ValueError: photon budget needs a moving pulse",
         "NoHorizon: profile has no c = u crossing"),
        ("no-crossing", "NoHorizon: no black horizon at t = 0.000e+00 s",
         "NoHorizon: profile has no c = u crossing"),
        ("leaves-line", "NoHorizon: no black horizon at t = 2.213e-10 s",
         "NoHorizon: no black horizon at t = 2.213e-10 s"),
        ("pole", "ValueError: front steepness 0 at t = 3.24071e-10 s: "
         "before the broadening pole",
         "NoHorizon: profile has no c = u crossing"),
        ("collapsed-grid", "NoHorizon: no black horizon at t = 0.000e+00 s",
         "NoHorizon: profile has no c = u crossing"),
    ])
    def test_cases_reach_their_errors(self, default_cfg, case, photon_first,
                                      photon_last):
        # The error of each case with photon_count first and last.  The
        # horizon leaves the line 2.2e-10 s into a 3.2e-10 s traversal, and
        # the flat front's traversal fails where its t = 0 scan does not.
        cfg = config.apply_override(default_cfg, SWEEP_CASES[case])
        names = ("photon_count", "horizon_count", "hawking_temperature")
        assert separate_calls(names, cfg)[1] == photon_first
        assert separate_calls(names[::-1], cfg)[1] == photon_last
        if case in ("bump", "leaves-line"):
            assert [h.kind for h in geometry.line_horizons(
                cfg.array, cfg.squid, cfg.pulse)] == (
                    ["white", "black"] if case == "bump" else ["black"])

    @pytest.mark.parametrize("case, refines, rows", [
        ("reference", 1, None), ("no-crossing", 0, 1)])
    def test_photon_count_shares_one_scan_and_refine(
            self, default_cfg, monkeypatch, case, refines, rows):
        # With photon_count requested, the t = 0 horizons are row 0 of the
        # budget's traversal: one lane_brentq call at a horizon point, and
        # one row scanned where t = 0 has no crossing.
        calls = {"lane_brentq": 0, "line_horizons": 0, "rows": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def scanned(f, first_row=0):
            calls["rows"] += len(f)
            return brackets(f, first_row)

        brackets = geometry._brackets
        monkeypatch.setattr(geometry, "_brackets", scanned)
        for name in ("lane_brentq", "line_horizons"):
            monkeypatch.setattr(geometry, name,
                                counted(name, getattr(geometry, name)))
        cfg = config.apply_override(default_cfg, SWEEP_CASES[case])
        spec = experiments.SweepSpec(base=cfg, axes=(),
                                     outputs=experiments._SWEEP_OUTPUTS)
        experiments.run_sweep(spec)
        assert calls["lane_brentq"] == refines
        assert calls["line_horizons"] == 0
        if rows is not None:
            assert calls["rows"] == rows

    def test_load_sweep_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"axes": [],,}')
        with pytest.raises(ParseError) as info:
            experiments.load_sweep(path)
        assert str(info.value) == \
            "%s: line 1 column 13: Expecting property name enclosed in " \
            "double quotes" % path

    def test_load_sweep_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"axis": []}')
        with pytest.raises(UnknownKey):
            experiments.load_sweep(path)

    def test_load_sweep_rejects_bad_axis(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"axes": [{"path": "pulse.dc_offset"}],'
                        ' "outputs": ["cell_speed"]}')
        with pytest.raises(ConfigError):
            experiments.load_sweep(path)

    @pytest.mark.parametrize("text, match", [
        ('[]', "must hold a JSON object"),
        ('{"axes": [{"path": "pulse.dc_offset", "values": 0.1}]}',
         "axis values must form a list"),
        ('{"outputs": "cell_speed"}', "outputs must form a list"),
    ], ids=["list", "axis-values", "outputs"])
    def test_load_sweep_rejects_malformed_layout(self, tmp_path, text, match):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            experiments.load_sweep(path)
