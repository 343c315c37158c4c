import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricmaps
from toricmaps import acceptance, harness
from toricmaps.cli import main
from toricmaps.dirichlet import make_interval
from toricmaps.flows import load_snapshot


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


def test_config_file_round_trip(tmp_path, capsys):
    cfg = {"domain": "interval", "resolution": [9], "n_x": 161}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert "without --out" in usage_error(["flow-duality", "--config", str(path)], capsys)
    out = tmp_path / "snaps"
    code = main(["flow-duality", "--config", str(path), "--out", str(out),
                 "--snapshot-every", "2"])
    assert code == 0
    snaps = sorted(out.glob("flow_*.txt"))
    assert len(snaps) == 11
    # the config's resolution and n_x shape every snapshot
    assert load_snapshot(snaps[-1], make_interval(9)).f.shape == (9, 161)


def test_suites_reject_flags_they_do_not_read(capsys):
    assert "--levels" in usage_error(["disc", "--levels", "8"], capsys)
    assert "--window" in usage_error(["all", "--window", "0.3"], capsys)
    assert "--levels" in usage_error(["flow-duality", "--levels", "8"], capsys)


def test_flags_name_the_missing_partner(tmp_path, capsys):
    err = usage_error(["geodesic", "--levels", "8,16,32,64"], capsys)
    assert "--levels given without --out" in err
    err = usage_error(["flow-duality", "--out", str(tmp_path)], capsys)
    assert "--out given without --snapshot-every" in err
    err = usage_error(["flow-duality", "--snapshot-every", "5"], capsys)
    assert "--snapshot-every given without --out" in err
    err = usage_error(["flow-duality", "--out", str(tmp_path), "--snapshot-every", "0"],
                      capsys)
    assert "--snapshot-every must be positive" in err


@pytest.mark.parametrize("argv,doc,field", [
    (["geodesic"], {"domain": "disc", "boundary_family": "loop(0.05)"}, "domain 'disc'"),
    (["geodesic"], {"boundary_family": "loop(0.05)"}, "boundary_family"),
    (["flow-duality", "--snapshot-every", "2"], {"polytope": "square"}, "polytope"),
])
def test_suites_reject_a_config_they_cannot_run(tmp_path, capsys, argv, doc, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    err = usage_error(argv + ["--config", str(path), "--out", str(tmp_path)], capsys)
    assert field in err


def test_unread_flag_fails_in_a_subprocess():
    src = str(Path(toricmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "toricmaps.cli", "disc", "--levels", "8"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "--levels" in proc.stderr


def test_geodesic_config_writes_one_row_per_level(tmp_path, capsys):
    cfg = {"domain": "interval", "resolution": [9], "levels": [4, 8, 16, 32],
           "n_x": 401, "n_rho": 401, "rho_span": 3.0}
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
