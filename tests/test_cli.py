import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmaps
from toricmaps import acceptance, cli, harness
from toricmaps.cli import main


def usage_error(argv, capsys) -> str:
    """Run the CLI on argv, expect a usage error, return its message."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code != 0
    return capsys.readouterr().err


def test_legendre_check_exits_clean(capsys):
    code = main(["legendre-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2


def test_geodesic_suite_writes_outputs(tmp_path, capsys):
    code = main(["geodesic", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "geodesic C0 convergence" in out
    assert "geodesic C1/C2 convergence" in out
    assert "FAIL" not in out
    assert code == 0
    assert (tmp_path / "geodesic_errors.csv").exists()
    assert (tmp_path / "geodesic_errors.dat").exists()


def test_config_file_round_trip(tmp_path, capsys, read_snapshot):
    cfg = {"n_y": 9, "n_x": 161}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert "without --out" in usage_error(["flow-duality", "--config", str(path)], capsys)
    out = tmp_path / "snaps"
    code = main(["flow-duality", "--config", str(path), "--out", str(out),
                 "--snapshot-every", "2"])
    assert code == 0
    snaps = sorted(out.glob("flow_*.txt"))
    assert len(snaps) == 11
    # the config's n_y and n_x shape every snapshot
    snap = read_snapshot(snaps[-1])
    assert (snap.domain_shape, snap.values.shape) == ((9,), (9, 161))


def test_flow_config_is_not_held_to_the_levels(tmp_path, capsys, read_snapshot):
    # the flow's n_x is its own key: no level of an ExperimentConfig bounds it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_x": 41, "n_y": 5}))
    out = tmp_path / "snaps"
    assert main(["flow-duality", "--config", str(path),
                 "--out", str(out), "--snapshot-every", "1"]) == 0
    snaps = sorted(out.glob("flow_*.txt"))
    assert read_snapshot(snaps[-1]).values.shape == (5, 41)


def test_flow_snapshots_are_named_by_index(tmp_path, capsys, read_snapshot):
    # dtau = h^2 / 4 = 3.9e-7 on 801 nodes: six decimals of tau cannot tell
    # consecutive snapshots apart
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_y": 801, "n_x": 41}))
    out = tmp_path / "snaps"
    assert main(["flow-duality", "--config", str(path), "--out", str(out),
                 "--snapshot-every", "1"]) == 0
    assert f"wrote 11 snapshots to {out}" in capsys.readouterr().out
    snaps = sorted(out.iterdir())
    assert [p.name for p in snaps] == [f"flow_{i:02d}.txt" for i in range(11)]
    taus = [read_snapshot(p).tau for p in snaps]
    assert taus[0] == 0.0 and all(a < b for a, b in zip(taus, taus[1:]))


FLOW = ["flow-duality", "--snapshot-every", "2"]


@pytest.mark.parametrize("argv,doc,key", [
    (FLOW, {"levels": [4, 8]}, "levels"),
    (FLOW, {"n_rho": 401}, "n_rho"),
    (FLOW, {"rho_span": 3.0}, "rho_span"),
    (FLOW, {"window": 0.2}, "window"),
    (FLOW, {"n_radii": 9, "n_angles": 64}, "n_angles, n_radii"),
    (FLOW, {"a": 0.3}, "a"),
    (FLOW, {"n_y": 9, "n_rho": 401}, "n_rho"),
    (["geodesic"], {"n_angles": 64}, "n_angles"),
    (["geodesic"], {"domain": "interval"}, "domain"),
    (FLOW, {"domain": "interval"}, "domain"),
    (["geodesic"], {"domain": "disc"}, "domain"),
])
def test_suites_reject_config_keys_they_do_not_read(tmp_path, capsys, argv, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    err = usage_error(argv + ["--config", str(path), "--out", str(tmp_path)], capsys)
    assert f"{key}: not read by the {argv[0]} suite" in err


def test_suites_reject_flags_they_do_not_read(capsys):
    assert "--config" in usage_error(["disc", "--config", "cfg.json"], capsys)
    assert "--config" in usage_error(["all", "--config", "cfg.json"], capsys)
    assert "--snapshot-every" in usage_error(["geodesic", "--snapshot-every", "8"], capsys)


@pytest.mark.parametrize("suite", ["geodesic", "flow-duality"])
@pytest.mark.parametrize("flag,value", [
    ("--levels", "8,16"), ("--resolution", "n_x=401"), ("--window", "0.2")])
def test_config_keys_have_no_flags(capsys, suite, flag, value):
    # a config key is set in the --config file only
    with pytest.raises(SystemExit) as info:
        main([suite, flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_flags_name_the_missing_partner(tmp_path, capsys):
    err = usage_error(["geodesic", "--config", str(tmp_path / "cfg.json")], capsys)
    assert "--config given without --out" in err
    err = usage_error(["flow-duality", "--out", str(tmp_path)], capsys)
    assert "--out given without --snapshot-every" in err
    err = usage_error(["flow-duality", "--snapshot-every", "5"], capsys)
    assert "--snapshot-every given without --out" in err
    err = usage_error(["flow-duality", "--out", str(tmp_path), "--snapshot-every", "0"],
                      capsys)
    assert "--snapshot-every must be positive" in err


@pytest.mark.parametrize("argv,doc,field", [
    (["geodesic"], {"domain": "disc", "a": 0.05}, "domain: not read by the geodesic"),
    (["geodesic"], {"boundary_family": "loop(0.05)"}, "boundary_family"),
    (["flow-duality", "--snapshot-every", "2"], {"polytope": "square"}, "polytope"),
    # the removed spellings are unknown keys, named as such
    (["geodesic"], {"polytope": "interval"}, "unknown config keys: ['polytope']"),
    (["geodesic"], {"boundary_family": "geodesic(0.1)"},
     "unknown config keys: ['boundary_family']"),
    (FLOW, {"resolution": [9]}, "unknown config keys: ['resolution']"),
    (["geodesic"], {"n_y": 4}, "n_y = 4 on domain 'interval'"),
])
def test_suites_reject_a_config_they_cannot_run(tmp_path, capsys, argv, doc, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    err = usage_error(argv + ["--config", str(path), "--out", str(tmp_path)], capsys)
    assert field in err


@pytest.mark.parametrize("argv,doc,message", [
    (["geodesic"], {"levels": 8}, "levels: 8 is not a non-empty list of ints"),
    (["geodesic"], {"n_rho": "801"}, "n_rho: '801' is not an int"),
    (["geodesic"], {"n_y": 9.0}, "n_y: 9.0 is not an int"),
    (["geodesic"], {"window": "0.1"}, "window: '0.1' is not a number"),
    (FLOW, {"n_x": "161"}, "n_x: '161' is not an int"),
], ids=["levels-int", "n_rho-string", "n_y-float", "window-string", "flow-n_x-string"])
def test_untyped_config_values_are_usage_errors_before_any_check(
        tmp_path, monkeypatch, capsys, argv, doc, message):
    ran = []
    monkeypatch.setattr(acceptance, "run_checks", lambda *args: ran.append(args) or [])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(path), "--out", str(tmp_path)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("argv", [["geodesic"], FLOW], ids=["geodesic", "flow"])
@pytest.mark.parametrize("text,kind", [
    ("[]", "an array"), ('[["a", 0.2]]', "an array"), ("3", "a number"), ("null", "null"),
], ids=["empty-array", "pair-array", "number", "null"])
def test_a_config_that_is_not_a_json_object_is_a_usage_error_before_any_check(
        tmp_path, monkeypatch, capsys, argv, text, kind):
    ran = []
    monkeypatch.setattr(acceptance, "run_checks", lambda *args: ran.append(args) or [])
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(path), "--out", str(tmp_path)])
    assert info.value.code == 2
    assert f"a config is a JSON object, not {kind}" in capsys.readouterr().err
    assert ran == []


def test_the_geodesic_suite_rejects_the_removed_x_grid_key(tmp_path, monkeypatch, capsys):
    # the families sample f on one fixed grid, so n_x is no longer a setting
    ran = []
    monkeypatch.setattr(acceptance, "run_checks", lambda *args: ran.append(args) or [])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_x": 401}))
    with pytest.raises(SystemExit) as info:
        main(["geodesic", "--config", str(path), "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unknown config keys: ['n_x']" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize("argv,doc,message", [
    (FLOW, {"n_y": 2}, "n_y = 2: the flow's grids need at least 3 nodes"),
    (FLOW, {"n_x": 2}, "n_x = 2: the flow's grids need at least 3 nodes"),
    (["geodesic"], {"window": 0.6}, "window = 0.6: the interior window"),
    (["geodesic"], {"window": 0.5}, "window = 0.5: the interior window"),
    (["geodesic"], {"rho_span": 0}, "rho_span = 0: the rho grid"),
    (["geodesic"], {"rho_span": -4.0}, "rho_span = -4.0: the rho grid"),
    # json.dumps writes the JSON literals NaN and Infinity
    (["geodesic"], {"rho_span": math.nan}, "rho_span = nan: the rho grid"),
    (["geodesic"], {"rho_span": math.inf}, "rho_span = inf: the rho grid"),
    (["geodesic"], {"rho_span": 1e-200}, "rho_span = 1e-200, n_rho = 801: the rho step"),
    (["geodesic"], {"levels": [8, "x"]}, "levels: [8, 'x'] is not a non-empty list of ints"),
    (["geodesic"], {"levels": [0, 8]}, "levels = [0, 8]: every level k must be >= 1"),
    (["geodesic"], {"n_rho": 3}, "n_rho = 3, rho_span = 4.0: no rho node"),
    (["geodesic"], {"a": 2.1}, "a = 2.1: the boundary potential u0 + c prod ell"),
    (["geodesic"], {"a": 5}, "a = 5: the boundary potential u0 + c prod ell"),
    (["geodesic"], {"a": -20.0}, "rho_span = 4.0, a = -20.0: the Legendre inversion"),
    (["geodesic"], {"rho_span": 40.0}, "rho_span = 40.0, a = 0.1: the Legendre inversion"),
    (["geodesic"], {"window": 1e-300}, "window = 1e-300: the interior window"),
], ids=["flow-n_y-2", "flow-n_x-2", "window-0.6", "window-0.5", "rho_span-0",
        "rho_span-negative", "rho_span-nan", "rho_span-inf", "rho_span-tiny", "levels-8,x",
        "levels-0,8", "n_rho-3", "a-2.1", "a-5", "a-negative-reach", "rho_span-reach",
        "window-tiny"])
def test_out_of_range_inputs_are_usage_errors_before_any_check(
        tmp_path, monkeypatch, capsys, argv, doc, message):
    ran = []
    monkeypatch.setattr(acceptance, "run_checks", lambda *args: ran.append(args) or [])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(path), "--out", str(tmp_path)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert ran == []


# values of the keys the geodesic suite reads that no run can honour
_OUT_OF_RANGE = {
    "a": st.one_of(st.floats(2.0, 1e6), st.floats(-1e6, -17.0), st.just(math.nan)),
    "levels": st.lists(st.integers(-8, 0), min_size=1, max_size=2, unique=True).map(sorted),
    "n_y": st.integers(-3, 4),
    "n_rho": st.integers(-2, 3),
    "rho_span": st.one_of(st.floats(-1e3, 0.0), st.floats(5e-324, 1e-160),
                          st.floats(34.0, 1e300),
                          st.sampled_from([math.nan, math.inf])),
    "window": st.one_of(st.floats(0.5, 10.0), st.floats(-1.0, 1e-17)),
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), _OUT_OF_RANGE[key])))
def test_drawn_out_of_range_values_exit_2_naming_their_key(pair):
    key, value = pair
    doc = {"levels": [4, 8], key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
            main(["geodesic", "--config", str(path), "--out", tmp])
    assert info.value.code == 2, err.getvalue()
    assert f"{key} = " in err.getvalue() or f"{key} must" in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_unread_flag_fails_in_a_subprocess():
    src = str(Path(toricmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "toricmaps.cli", "disc", "--config", "cfg.json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "unrecognized arguments: --config" in proc.stderr


def test_geodesic_config_writes_one_row_per_level(tmp_path, capsys):
    cfg = {"n_y": 9, "levels": [4, 8, 16, 32], "n_rho": 401, "rho_span": 3.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["geodesic", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "geodesic_errors.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["4", "8", "16", "32"]


def test_geodesic_out_runs_the_interval_family_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "_CACHE", {})
    shapes = []
    kahler_field = harness.kahler_field

    def counted(family, rho):
        shapes.append(family.domain.shape)
        return kahler_field(family, rho)

    monkeypatch.setattr(harness, "kahler_field", counted)
    assert main(["geodesic", "--out", str(tmp_path)]) == 0
    assert shapes == [(17,)]


def test_resolution_values_take_their_field_types(tmp_path, monkeypatch, capsys):
    configs = []

    def recorded(cfg):
        configs.append(cfg)
        return harness.run_experiment(cfg)

    monkeypatch.setattr(cli, "run_experiment", recorded)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"levels": [4, 8, 16, 32], "n_y": 9, "n_rho": 401,
                                "rho_span": 3.5}))
    assert main(["geodesic", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert [(c.n_y, c.n_rho, c.rho_span) for c in configs] == [(9, 401, 3.5)]
    assert "C0 order in k: p = [" in capsys.readouterr().out


def test_a_check_that_raises_fails_and_the_rest_still_run(monkeypatch, capsys):
    def raising():
        raise ValueError("the order gate needs finite non-negative errors")

    monkeypatch.setattr(acceptance, "ALL_CHECKS",
                        (raising, *acceptance.ALL_CHECKS[1:]))
    assert main(["all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert [line.split()[0] for line in lines] == ["FAIL"] + ["PASS"] * 12
    assert lines[0] == ("FAIL  raising: raised ValueError: "
                        "the order gate needs finite non-negative errors")
