import dataclasses
import math

import pytest

from elaa_doa.errors import ScenarioError
from elaa_doa.geometry import SPEED_OF_LIGHT, Target
from elaa_doa.scenarios import (
    _SPEC_KEYS,
    ScenarioSpec,
    builtin_scenarios,
    parse_scenario,
    paper_array,
)
from elaa_doa.signal_model import SteeringModel

MINIMAL = """
array.elements_per_ula = 16
array.carrier_freq_hz = 76e9
array.gap_wavelengths = 150
target.1.range_m = 250.0
target.1.angle_deg = -0.2
target.2.range_m = 250.0
target.2.angle_deg = 0.2
snr_grid_db = 0, 5, 10
"""


def test_parse_minimal():
    spec = parse_scenario(MINIMAL)
    assert spec.name == "scenario"
    assert spec.array.elements_per_ula == 16
    assert spec.array.gap == pytest.approx(150.0 * spec.array.wavelength)
    assert len(spec.targets) == 2
    assert math.degrees(spec.targets[0].angle) == pytest.approx(-0.2)
    assert spec.snr_grid_db == (0.0, 5.0, 10.0)
    assert spec.n_trials == 500
    assert spec.steering_model is None


def test_parse_full_options():
    text = MINIMAL.replace("= 76e9", "= 75e9") + (
        "array.spacing_wavelengths = 0.375\n"
        "name = demo\n"
        "n_trials = 25\n"
        "algorithms = ss_esprit\n"
        "base_seed = 9\n"
        "steering_model = farfield\n"
    )
    spec = parse_scenario(text)
    wavelength = SPEED_OF_LIGHT / 75e9
    assert spec.array.wavelength == wavelength
    assert spec.array.gap == 150.0 * wavelength
    assert spec.array.spacing == 0.375 * wavelength
    assert spec.name == "demo"
    assert spec.n_trials == 25
    assert spec.algorithms == ("ss_esprit",)
    assert spec.base_seed == 9
    assert spec.steering_model is SteeringModel.FAR_FIELD


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("array.elements_per_ula = 16\n" + MINIMAL, "duplicate key"),
        (MINIMAL.replace("snr_grid_db = 0, 5, 10\n", ""), "missing key snr_grid_db"),
        (MINIMAL + "bogus_key = 1\n", "unknown key"),
        # the fused surface is always the product of the module surfaces
        (MINIMAL + "fusion_mode = max\n", r"^line 10: unknown key 'fusion_mode'$"),
        (MINIMAL + "steering_model = planar\n", "unknown steering_model"),
        (MINIMAL + "algorithms = music\n", "unknown algorithm"),
        (MINIMAL + "no_equals_here\n", "expected 'key = value'"),
        (MINIMAL + "target.3.range_m = 9.0\n", "needs both"),
        (
            MINIMAL.replace("array.carrier_freq_hz = 76e9\n", ""),
            r"^missing key array\.carrier_freq_hz$",
        ),
        (
            MINIMAL.replace("array.gap_wavelengths = 150\n", ""),
            r"^missing key array\.gap_wavelengths$",
        ),
        (MINIMAL.replace("= 150", "= abc"), "must be a number"),
        (MINIMAL.replace("= 76e9", "= nan"), r"line 3: array.carrier_freq_hz must be finite"),
        (MINIMAL.replace("= 76e9", "= 0"), r"line 3: array.carrier_freq_hz must be finite"),
        (MINIMAL.replace("= 76e9", "= 1e-320"), "wavelength must be finite"),
        # a derived length or distance that overflows names the key it came from
        (
            MINIMAL.replace("= 76e9", "= 1e-310"),
            r"^line 3: array\.carrier_freq_hz gives wavelength inf m;"
            r" the wavelength must be finite$",
        ),
        (
            MINIMAL.replace("= 76e9", "= 1").replace("= 150", "= 1e308"),
            r"^line 4: array\.gap_wavelengths gives inf m; a length must be finite and positive$",
        ),
        (
            MINIMAL.replace("= 150", "= 1e308"),
            r"^line 4: array\.gap_wavelengths: the Fraunhofer distance 2 \* total_aperture\*\*2"
            r" / wavelength of a [0-9.e+]+ m aperture at wavelength [0-9.e-]+ m overflows$",
        ),
        (
            MINIMAL.replace("= 150", "= 1e-323"),
            r"^line 4: array\.gap_wavelengths gives 0\.0 m; a length must be finite and positive$",
        ),
        (
            MINIMAL.replace("range_m = 250.0", "range_m = 1e154", 1),
            r"^line 5: target\.1\.range_m is 1e\+154 m, more than 1e\+100 m;"
            r" position errors that large overflow when squared$",
        ),
        (MINIMAL.replace("range_m = 250.0", "range_m = inf", 1), "target.1: range must be finite"),
        # each value error carries its location exactly once
        (
            MINIMAL.replace("range_m = 250.0", "range_m = abc", 1),
            r"^line 5: target\.1\.range_m must be a number, got 'abc'$",
        ),
        (
            MINIMAL.replace("angle_deg = 0.2", "angle_deg = east"),
            r"^line 8: target\.2\.angle_deg must be a number, got 'east'$",
        ),
        (
            MINIMAL.replace("range_m = 250.0", "range_m = -1.0", 1),
            r"^target\.1: range must be finite and positive, got -1\.0$",
        ),
        (
            MINIMAL.replace("= 76e9", "= nan"),
            r"^line 3: array\.carrier_freq_hz must be finite and positive, got nan$",
        ),
        (
            MINIMAL.replace("= 0, 5, 10", "= 0, x"),
            r"^line 9: snr_grid_db must be a comma list of numbers, got '0, x'$",
        ),
        (MINIMAL + "n_trials = 2.5\n", r"^line 10: n_trials must be an integer, got '2\.5'$"),
        # array values name the key and line they came from, and the value as given
        (
            MINIMAL.replace("= 150", "= nan"),
            r"^line 4: array\.gap_wavelengths must be finite and positive, got nan$",
        ),
        (
            MINIMAL.replace("= 150", "= -5"),
            r"^line 4: array\.gap_wavelengths must be finite and positive, got -5\.0$",
        ),
        (
            MINIMAL.replace("= 16", "= 1"),
            r"^line 2: array\.elements_per_ula must be at least 2, got 1$",
        ),
        (
            MINIMAL.replace("= 76e9", "= -76e9"),
            r"^line 3: array\.carrier_freq_hz must be finite and positive, got -76000000000\.0$",
        ),
        (
            MINIMAL + "array.spacing_wavelengths = nan\n",
            r"^line 10: array\.spacing_wavelengths must be finite and positive, got nan$",
        ),
        (
            MINIMAL + "array.spacing_wavelengths = 1.3\n",
            r"^line 10: array\.spacing_wavelengths gives [0-9.e-]+ m, more than half the"
            r" wavelength [0-9.e-]+ m; wider modules have grating lobes$",
        ),
        (MINIMAL + "algorithms = ss_esprit, ss_esprit\n", r"^algorithm 'ss_esprit' is listed twice$"),
    ],
)
def test_parse_errors(mutation, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(mutation)


def test_parse_error_reports_line_number():
    text = MINIMAL + "n_trials = soon\n"
    with pytest.raises(ScenarioError, match=r"line \d+: n_trials must be an integer"):
        parse_scenario(text)


def test_every_scenario_key_is_a_spec_field():
    fields = {field.name for field in dataclasses.fields(ScenarioSpec)}
    assert set(_SPEC_KEYS) <= fields


def test_load_scenario(tmp_path):
    from elaa_doa.scenarios import load_scenario

    path = tmp_path / "demo.scenario"
    path.write_text(MINIMAL)
    spec = load_scenario(path)
    assert len(spec.targets) == 2


def test_builtin_definitions():
    table = builtin_scenarios()
    assert set(table) == {
        "fig3_small_sep",
        "fig3_large_sep",
        "fig4_near_a",
        "fig4_near_b",
    }
    small = table["fig3_small_sep"]
    assert [math.degrees(t.angle) for t in small.targets] == pytest.approx([-0.2, 0.2])
    assert all(t.range == 250.0 for t in small.targets)
    assert small.snr_grid_db == tuple(float(s) for s in range(0, 45, 5))
    assert small.n_trials == 500
    assert set(small.algorithms) == {
        "ss_music_elaa",
        "ss_music_ula1",
        "ss_music_ula2",
        "ss_esprit",
    }
    large = table["fig3_large_sep"]
    assert [math.degrees(t.angle) for t in large.targets] == pytest.approx([-5.0, 5.0])
    near_a = table["fig4_near_a"]
    assert near_a.algorithms == ("nf_localize",)
    assert near_a.snr_grid_db == (30.0,)
    assert [t.range for t in near_a.targets] == [5.0, 5.0]
    near_b = table["fig4_near_b"]
    assert [t.range for t in near_b.targets] == [4.0, 6.0]
    assert all(t.angle == 0.0 for t in near_b.targets)


def test_spec_validation():
    cfg = paper_array()
    with pytest.raises(ScenarioError, match="at least one target"):
        ScenarioSpec(name="x", array=cfg, targets=(), snr_grid_db=(0.0,))
    with pytest.raises(ScenarioError, match="unknown algorithm"):
        ScenarioSpec(
            name="x",
            array=cfg,
            targets=(Target(5.0, 0.0),),
            snr_grid_db=(0.0,),
            algorithms=("music",),
        )
    for bad in (math.nan, -math.inf):
        with pytest.raises(ScenarioError, match="SNR point"):
            ScenarioSpec(
                name="x", array=cfg, targets=(Target(5.0, 0.0),), snr_grid_db=(0.0, bad)
            )
    # +inf is the documented noiseless snapshot
    ScenarioSpec(name="x", array=cfg, targets=(Target(5.0, 0.0),), snr_grid_db=(math.inf,))


@pytest.mark.parametrize("n_targets", [8, 9])
def test_spec_rejects_more_targets_than_the_pencil_resolves(n_targets):
    targets = tuple(Target(250.0, math.radians(a)) for a in range(n_targets))
    with pytest.raises(ScenarioError, match="resolves at most 7"):
        ScenarioSpec(name="x", array=paper_array(), targets=targets, snr_grid_db=(0.0,))
