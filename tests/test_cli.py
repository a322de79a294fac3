import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elaa_doa import cli
from elaa_doa.errors import ScenarioError
from elaa_doa.harness import METRICS_HEADER, MetricsRow
from elaa_doa.scenarios import _as_list, builtin_scenarios, load_scenario
from elaa_doa.signal_model import snapshot
from elaa_doa.ss_music import Spectrum, estimate_doa_music, peak_pick

TINY = """
name = cli_tiny
array.elements_per_ula = 16
array.carrier_freq_hz = 76e9
array.gap_wavelengths = 150
target.1.range_m = 400.0
target.1.angle_deg = 3.0
snr_grid_db = 30
n_trials = 2
algorithms = ss_esprit
"""


@pytest.fixture()
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text(TINY)
    return str(path)


def test_parse_snr_forms():
    assert cli._parse_snr("0:40:5") == tuple(float(s) for s in range(0, 45, 5))
    assert cli._parse_snr("16") == (16.0,)
    assert cli._parse_snr("0, 10,20") == (0.0, 10.0, 20.0)
    # the last range is finite, but its point count overflows
    for bad in ("0:40", "0:40:0", "a:b:c", "x,y", "nan:40:5", "0:inf:5", "0:40:nan",
                "0:1e308:1e-308"):
        with pytest.raises(ScenarioError):
            cli._parse_snr(bad)


def test_snr_range_is_refused_before_it_is_built():
    limit = cli.MAX_SNR_POINTS
    assert len(cli._parse_snr(f"0:{limit - 1}:1")) == limit
    with pytest.raises(ScenarioError) as exc:
        cli._parse_snr(f"0:{limit}:1")
    want = f"--snr range '0:{limit}:1' gives {limit + 1} points; at most {limit}"
    assert str(exc.value) == want
    with pytest.raises(ScenarioError, match="gives 1000000001 points"):
        cli._parse_snr("0:1e9:1")


def test_parse_algos(tiny_scenario, tmp_path, capsys):
    assert _as_list("--algos", "ss_esprit, nf_localize") == ("ss_esprit", "nf_localize")
    out = tmp_path / "r.csv"
    code = cli.main(["run", "--scenario", tiny_scenario, "--algos", "music", "--out", str(out)])
    assert code == 2
    assert "unknown algorithm 'music'" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_algorithm_exits_two(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "r.csv"
    args = ["run", "--scenario", tiny_scenario, "--out", str(out), "--quiet"]
    assert cli.main([*args, "--algos", "ss_esprit,ss_esprit"]) == 2
    path = tmp_path / "twice.scenario"
    path.write_text(TINY.replace("algorithms = ss_esprit", "algorithms = ss_esprit, ss_esprit"))
    assert cli.main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: algorithm 'ss_esprit' is listed twice\n" * 2
    assert not out.exists()


def test_bad_values_name_flag_or_line_once(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "r.csv"
    args = ["run", "--scenario", tiny_scenario, "--out", str(out), "--quiet"]
    assert cli.main([*args, "--snr", "10,x"]) == 2
    assert capsys.readouterr().err == "error: --snr must be a comma list of numbers, got '10,x'\n"
    # an empty list given explicitly is refused, not read as the scenario's own
    for flag, what in (("--algos", "algorithm"), ("--snr", "SNR point")):
        for value in ("", ","):
            assert cli.main([*args, flag, value]) == 2
            assert capsys.readouterr().err == f"error: scenario needs at least one {what}\n"
    path = tmp_path / "bad_range.scenario"
    path.write_text(TINY.replace("range_m = 400.0", "range_m = abc"))
    assert cli.main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: line 6: target.1.range_m must be a number, got 'abc'\n"
    # a target on an array element is refused before the sweep, by run and by spectrum
    path = tmp_path / "on_element.scenario"
    path.write_text(
        TINY.replace("range_m = 400.0", "range_m = 0.29584782039473684").replace(
            "angle_deg = 3.0", "angle_deg = 89.99999999999999"
        )
    )
    spectrum = tmp_path / "s.csv"
    for command, dest in (
        (["run", "--trials", "2", "--quiet"], out),
        (["spectrum", "--snr", "20", "--seed", "1"], spectrum),
    ):
        assert cli.main([*command, "--scenario", str(path), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 6: target.1 coincides with an array element\n"
    assert not out.exists() and not spectrum.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "old, new, message",
    [
        # nf_localize misses a target this far by about its range, whose
        # square overflows: once an inf RMSE at 1e154 m and a traceback at 1e160 m
        (
            "range_m = 400.0",
            "range_m = 1e154",
            "line 6: target.1.range_m is 1e+154 m, more than 1e+100 m;"
            " position errors that large overflow when squared",
        ),
        (
            "range_m = 400.0",
            "range_m = 1e160",
            "line 6: target.1.range_m is 1e+160 m, more than 1e+100 m;"
            " position errors that large overflow when squared",
        ),
        (
            "= 76e9",
            "= 1e-310",
            "line 4: array.carrier_freq_hz gives wavelength inf m; the wavelength must be finite",
        ),
        (
            "= 150",
            "= 1e308",
            "line 5: array.gap_wavelengths: the Fraunhofer distance 2 * total_aperture**2"
            " / wavelength of a 3.9446376052631584e+305 m aperture at wavelength"
            " 0.003944637605263158 m overflows",
        ),
    ],
    ids=["range_1e154", "range_1e160", "carrier_1e-310", "gap_1e308"],
)
def test_overflowing_values_exit_two(tmp_path, capsys, old, new, message):
    path = tmp_path / "far.scenario"
    path.write_text(TINY.replace(old, new))
    out = tmp_path / "r.csv"
    args = ["--algos", "nf_localize,ss_esprit", "--out", str(out), "--quiet"]
    assert cli.main(["run", "--scenario", str(path), *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_target_at_the_range_limit_gives_finite_metrics(tmp_path):
    path = tmp_path / "far.scenario"
    path.write_text(TINY.replace("range_m = 400.0", "range_m = 1e100"))
    out = tmp_path / "r.csv"
    args = ["--algos", "nf_localize,ss_esprit", "--out", str(out), "--quiet"]
    assert cli.main(["run", "--scenario", str(path), *args]) == 0
    rmse = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
    assert len(rmse) == 2 and all(np.isfinite(rmse))


def test_negative_seed(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "r.csv"
    args = ["--scenario", tiny_scenario, "--seed", "-1", "--out", str(out)]
    assert cli.main(["spectrum", *args, "--snr", "20"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
    assert not out.exists()
    # run masks its base seed, so a negative one is a seed like any other
    assert cli.main(["run", *args, "--quiet"]) == 0
    assert out.exists()


def test_resolve_scenario_builtin():
    assert cli._resolve_scenario("fig4_near_b").name == "fig4_near_b"
    with pytest.raises(ScenarioError):
        cli._resolve_scenario("no_such_thing")


def test_run_writes_deterministic_csv(tiny_scenario, tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    code = cli.main(
        ["run", "--scenario", tiny_scenario, "--out", str(out1), "--quiet"]
    )
    assert code == 0
    assert cli.main(
        ["run", "--scenario", tiny_scenario, "--out", str(out2), "--quiet"]
    ) == 0
    text = out1.read_text()
    assert text.splitlines()[0] == METRICS_HEADER
    assert len(text.splitlines()) == 2
    assert out1.read_bytes() == out2.read_bytes()


def test_run_grid_and_trial_overrides(tiny_scenario, tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(
        [
            "run",
            "--scenario",
            tiny_scenario,
            "--snr",
            "10:20:5",
            "--trials",
            "1",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [ln.split(",")[1] for ln in lines[1:]] == ["10.0", "15.0", "20.0"]
    assert all(ln.split(",")[2] == "1" for ln in lines[1:])


def test_run_overrides_set_only_the_given_fields(tiny_scenario, tmp_path):
    # --trials, --snr and --seed set their fields as the scenario keys do,
    # and a run without them keeps the file's values
    flags = tmp_path / "flags.csv"
    args = ["--trials", "7", "--snr", "10", "--seed", "1", "--out", str(flags), "--quiet"]
    assert cli.main(["run", "--scenario", tiny_scenario, *args]) == 0
    path = tmp_path / "keys.scenario"
    text = TINY.replace("n_trials = 2", "n_trials = 7").replace("= 30", "= 10")
    path.write_text(text + "base_seed = 1\n")
    keys = tmp_path / "keys.csv"
    assert cli.main(["run", "--scenario", str(path), "--out", str(keys), "--quiet"]) == 0
    assert flags.read_bytes() == keys.read_bytes()
    plain = tmp_path / "plain.csv"
    assert cli.main(["run", "--scenario", tiny_scenario, "--out", str(plain), "--quiet"]) == 0
    assert plain.read_text().splitlines()[1].split(",")[1:3] == ["30.0", "2"]


def test_run_debug_out(tiny_scenario, tmp_path):
    out = tmp_path / "r.csv"
    dbg = tmp_path / "trials.csv"
    code = cli.main(
        [
            "run",
            "--scenario",
            tiny_scenario,
            "--out",
            str(out),
            "--debug-out",
            str(dbg),
            "--quiet",
        ]
    )
    assert code == 0
    assert dbg.read_text().splitlines()[0].startswith("algorithm,snr_db,trial,seed")


@pytest.mark.parametrize(
    "command, flag",
    [
        (["run"], "--full"),
        (["run"], "--rmse-include-failures"),
        (["spectrum", "--snr", "20", "--seed", "1"], "--dump-snapshot=snap.c16"),
    ],
)
def test_retired_flags_exit_two(tiny_scenario, tmp_path, capsys, command, flag):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--scenario", tiny_scenario, "--out", str(out), flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
    assert not out.exists()


def test_run_exit_three_on_failure_rate(tiny_scenario, tmp_path, monkeypatch, capsys):
    row = MetricsRow("ss_esprit", 30.0, 10, None, 0.0, 0.9, "deg")
    monkeypatch.setattr(cli, "run_monte_carlo", lambda spec, **kw: [row])
    out = str(tmp_path / "r.csv")
    code = cli.main(["run", "--scenario", tiny_scenario, "--out", out, "--quiet"])
    assert code == 3
    assert "90%" in capsys.readouterr().err


def test_unknown_scenario_exits_two(tmp_path, capsys):
    code = cli.main(["run", "--scenario", "missing", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n_targets", [8, 9])
def test_too_many_targets_exit_two(tmp_path, capsys, n_targets):
    lines = [ln for ln in TINY.splitlines() if not ln.startswith(("target.", "algorithms"))]
    for i in range(1, n_targets + 1):
        lines += [f"target.{i}.range_m = 400.0", f"target.{i}.angle_deg = {3.0 * i}"]
    lines.append("algorithms = ss_esprit, ss_music_elaa, nf_localize")
    path = tmp_path / "crowded.scenario"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {n_targets} targets" in err and "resolves at most 7" in err
    assert not (tmp_path / "r.csv").exists()


def test_overflowing_noise_variance_exits_two(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = cli.main(
        ["run", "--scenario", "fig3_small_sep", "--snr=-4000", "--trials", "1",
         "--algos", "ss_esprit", "--quiet", "--out", str(out)]
    )
    assert code == 2
    assert "error: SNR point -4000.0 dB is too low" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message, replaces",
    [
        # the pencil is half the module and the grid 0.01 degrees: neither is a key
        ("pencil = 7", "unknown key 'pencil'", None),
        ("grid_step_deg = 0.05", "unknown key 'grid_step_deg'", None),
        ("steering_model = nf_shared_doa", "unknown steering_model 'nf_shared_doa'", None),
        # hits are within 0.5 degrees or 0.1 m, by the metric's unit
        ("hit_tolerance_deg = 0.25", "unknown key 'hit_tolerance_deg'", None),
        ("hit_tolerance_m = 0.05", "unknown key 'hit_tolerance_m'", None),
        # an array is given by its carrier, and its lengths in its wavelengths
        ("array.wavelength_m = 0.004", "unknown key 'array.wavelength_m'", None),
        ("array.gap_m = 0.6", "unknown key 'array.gap_m'", None),
        ("array.spacing_m = 0.0015", "unknown key 'array.spacing_m'", None),
        # given in place of the key that replaced it, the retired key is
        # named at its line before the new one is found missing
        (
            "array.wavelength_m = 0.004",
            "unknown key 'array.wavelength_m'",
            "array.carrier_freq_hz",
        ),
        ("array.gap_m = 0.6", "unknown key 'array.gap_m'", "array.gap_wavelengths"),
    ],
    ids=[
        "pencil", "grid_step_deg", "nf_shared_doa", "hit_tolerance_deg", "hit_tolerance_m",
        "wavelength_m", "gap_m", "spacing_m", "wavelength_m_in_place", "gap_m_in_place",
    ],
)
def test_retired_settings_exit_two(tmp_path, capsys, line, message, replaces):
    lines = TINY.splitlines(True)
    text = "".join(ln for ln in lines if not (replaces and ln.startswith(replaces)))
    path = tmp_path / "retired.scenario"
    path.write_text(text + line + "\n")
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {len(text.splitlines()) + 1}: {message}\n"
    assert err.count("line") == 1
    assert not out.exists()


@pytest.mark.parametrize("step", ["nan", "1e9", "1e-300", "1e-310", "0.000999"])
def test_bad_grid_step_exits_two(tmp_path, capsys, step):
    # no grid step is read any more, so one that once broke the grid is
    # refused as the key, before its value is looked at
    path = tmp_path / "grid.scenario"
    path.write_text(TINY + f"grid_step_deg = {step}\n")
    out = tmp_path / "out.csv"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {len(TINY.splitlines()) + 1}: unknown key 'grid_step_deg'\n"
    assert not out.exists()


def test_nf_localize_over_seven_targets_exits_two(tmp_path, capsys):
    # 32-element modules resolve 15 sources, but the localizer's association
    # scores all K! matchings: 12 targets would never finish
    lines = [ln for ln in TINY.splitlines() if not ln.startswith(("target.", "algorithms"))]
    lines = [ln.replace("= 16", "= 32") for ln in lines]
    for i in range(1, 13):
        lines += [f"target.{i}.range_m = 4.0", f"target.{i}.angle_deg = {5.0 * i - 30.0}"]
    path = tmp_path / "crowded.scenario"
    path.write_text("\n".join(lines + ["algorithms = ss_esprit"]) + "\n")
    assert len(load_scenario(str(path)).targets) == 12
    out = tmp_path / "r.csv"
    args = ["run", "--scenario", str(path), "--algos", "nf_localize", "--out", str(out)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error: 12 targets; nf_localize takes at most 7,")
    assert not out.exists()


@pytest.mark.parametrize("snr", ["nan", "-inf"])
def test_non_finite_snr_exits_two(tiny_scenario, tmp_path, capsys, snr):
    out = tmp_path / "out.csv"
    common = ["--scenario", tiny_scenario, f"--snr={snr}", "--out", str(out)]
    assert cli.main(["spectrum", *common, "--seed", "1"]) == 2
    assert cli.main(["run", *common, "--quiet"]) == 2
    path = tmp_path / "bad.scenario"
    path.write_text(TINY.replace("snr_grid_db = 30", f"snr_grid_db = 30, {snr}"))
    assert cli.main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: SNR point {float(snr)!r} dB is invalid") == 3
    assert not out.exists()


def test_spectrum_peaks_where_music_estimates(tmp_path):
    out = tmp_path / "spec.csv"
    args = ["--scenario", "fig3_small_sep", "--snr", "20", "--seed", "1", "--out", str(out)]
    assert cli.main(["spectrum", *args]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    surface = Spectrum(grid=np.radians(table[:, 0]), values=table[:, 1])
    spec = builtin_scenarios()["fig3_small_sep"]
    snap = snapshot(spec.array, spec.targets, 20.0, 1)
    expected = estimate_doa_music(snap, spec.array, 2)
    assert np.degrees(peak_pick(surface, 2)) == pytest.approx(np.degrees(expected), abs=1e-9)


def test_spectrum_subcommand(tiny_scenario, tmp_path):
    out = tmp_path / "spec.csv"
    code = cli.main(
        ["spectrum", "--scenario", tiny_scenario, "--snr", "20", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle_deg,value"
    assert len(lines) == 18_001


def test_array_factor_subcommand(tiny_scenario, tmp_path):
    out = tmp_path / "af.csv"
    assert cli.main(["array-factor", "--scenario", tiny_scenario, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "angle_deg,elaa_db,ula_db"
    assert len(lines) == 18_001
    peak = max(float(ln.split(",")[1]) for ln in lines[1:])
    assert peak == pytest.approx(0.0, abs=1e-9)


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("flag", ["--out", "--debug-out"])
def test_unwritable_run_output_exits_two_before_the_sweep(
    tiny_scenario, tmp_path, monkeypatch, capsys, flag
):
    monkeypatch.setattr(cli, "run_monte_carlo", _no_sweep)
    out, debug = tmp_path / "r.csv", tmp_path / "d.csv"
    out.write_text("kept\n")
    missing = tmp_path / "missing" / "o.csv"
    paths = {"--out": str(out), "--debug-out": str(debug), flag: str(missing)}
    args = ["run", "--scenario", tiny_scenario, "--quiet", *(x for kv in paths.items() for x in kv)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: cannot write {missing}: No such file or directory\n"
    # the checks leave an existing file as it was and create none
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "tiny.scenario"]
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize(
    "first, second",
    [("--out", "--debug-out"), ("--scenario", "--out"), ("--scenario", "--debug-out")],
)
def test_outputs_naming_one_file_exit_two_before_the_sweep(
    tiny_scenario, tmp_path, monkeypatch, capsys, first, second
):
    # the debug table would be overwritten by the metrics, or the scenario by an output
    monkeypatch.setattr(cli, "run_monte_carlo", _no_sweep)
    shared = tiny_scenario if "--scenario" in (first, second) else str(tmp_path / "x.csv")
    paths = {"--scenario": tiny_scenario, "--out": str(tmp_path / "r.csv"), first: shared}
    # the second name reaches the file through a link and a detour
    (tmp_path / "link").symlink_to(tmp_path)
    paths[second] = str(tmp_path / "link" / ".." / tmp_path.name / "link" / Path(shared).name)
    args = ["run", "--quiet", *(x for kv in paths.items() for x in kv)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {first} and {second} name the same file {paths[second]}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "tiny.scenario"]
    assert Path(tiny_scenario).read_text() == TINY


@pytest.mark.parametrize("command", [["spectrum", "--snr", "20", "--seed", "1"], ["array-factor"]])
def test_output_naming_the_scenario_exits_two(tiny_scenario, capsys, command):
    assert cli.main([*command, "--scenario", tiny_scenario, "--out", tiny_scenario]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --scenario and --out name the same file {tiny_scenario}\n"
    assert Path(tiny_scenario).read_text() == TINY


@pytest.mark.parametrize(
    "command, flag",
    [
        (["spectrum", "--snr", "20", "--seed", "1"], "--out"),
        (["array-factor"], "--out"),
    ],
)
def test_unwritable_outputs_exit_two(tiny_scenario, tmp_path, capsys, command, flag):
    good = tmp_path / "good.out"
    for bad, reason in ((tmp_path / "missing" / "o.csv", "No such file"), (tmp_path, "directory")):
        outputs = {"--out": str(good), flag: str(bad)}
        args = [*command, "--scenario", tiny_scenario, *(x for kv in outputs.items() for x in kv)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}: ") and reason in err
        assert not good.exists()


def test_unreadable_scenario_exits_two(tmp_path, capsys):
    latin1 = tmp_path / "latin1.scenario"
    latin1.write_bytes(TINY.replace("cli_tiny", "caf\xe9").encode("latin-1"))
    out = tmp_path / "r.csv"
    for path, reason in ((tmp_path, "Is a directory"), (latin1, "is not UTF-8 text")):
        assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and reason in err
    assert not out.exists()


def test_run_files_are_the_same_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a product's columns across threads, and rounds a
    # column by its place in its share; neither the fused MUSIC pick nor
    # the whole-grid spectrum may move
    src = str(Path(cli.__file__).resolve().parents[1])
    files = []
    for threads in ("1", "2"):
        out, debug = tmp_path / f"run_{threads}.csv", tmp_path / f"debug_{threads}.csv"
        spectrum = tmp_path / f"spectrum_{threads}.csv"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        for args in (
            ["run", "--scenario", "fig3_small_sep", "--algos", "ss_music_elaa", "--trials", "16",
             "--seed", "42", "--quiet", "--out", str(out), "--debug-out", str(debug)],
            ["spectrum", "--scenario", "fig3_small_sep", "--snr", "20", "--seed", "1",
             "--out", str(spectrum)],
        ):
            subprocess.run(
                [sys.executable, "-m", "elaa_doa.cli", *args],
                check=True, env=env, capture_output=True,
            )
        files.append((out.read_bytes(), debug.read_bytes(), spectrum.read_bytes()))
    assert files[0][0] == files[1][0]
    assert files[0][1] == files[1][1]
    assert files[0][2] == files[1][2]
