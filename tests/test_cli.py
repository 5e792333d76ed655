"""End-to-end tests for the command-line front end.

Every test drives main() with an argv list and checks exit codes plus the
printed contract: solution lines and stats for solve, the report CSV for
tune, written artifacts for bench, byte-stable text for convert.
"""

from pathlib import Path

import pytest

from intmapf import cli
from intmapf.cbs import SolveConfig
from intmapf.cli import main
from intmapf.graph import build_grid_graph
from intmapf.mapio import parse_map, parse_roadmap, serialize_roadmap
from intmapf.tuning import TuneConfig

FIXTURES = Path(__file__).parent / "fixtures"
MAP = str(FIXTURES / "tiny.map")
SCEN = str(FIXTURES / "tiny.scen")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _line_roadmap(tmp_path):
    return _write(
        tmp_path,
        "line.roadmap",
        "v 3\n0 0.0 0.0\n1 1.0 0.0\n2 2.0 0.0\ne 2\n0 1 1.0\n1 2 1.0\n",
    )


def _roadmap_scen(tmp_path, pairs):
    lines = ["version 1"]
    for s, g in pairs:
        lines.append(f"0\tline.roadmap\t10\t1\t{s}\t0\t{g}\t0\t1.0")
    return _write(tmp_path, "line.scen", "\n".join(lines) + "\n")


# ---------------------------------------------------------------- solve


def test_solve_grid_success(capsys):
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "2", "--s", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "agent 0:" in out and "agent 1:" in out
    assert "makespan=" in out
    assert "s_used=1.0" in out
    assert "nodes_expanded=" in out and "low_level_calls=" in out
    names = [line.split("=")[0] for line in out.splitlines() if "=" in line]
    i = names.index("low_level_calls")
    assert names[i + 1 : i + 5] == ["picked_cardinal", "picked_semi", "picked_non", "plans_reused"]
    assert int(out.split("plans_reused=")[1].split()[0]) >= 0


def test_solve_baseline_flag(capsys):
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--baseline"])
    assert rc == 0
    assert "s_used=1.0" in capsys.readouterr().out


def test_solve_scale_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--s", "1.0", "--baseline"])
    assert exc.value.code == 2


def test_solve_map_and_roadmap_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", MAP, "--roadmap", MAP, "--scen", SCEN, "--agents", "1"])
    assert exc.value.code == 2


def test_solve_roadmap_and_out_file(tmp_path, capsys):
    rm = _line_roadmap(tmp_path)
    sc = _roadmap_scen(tmp_path, [(0, 2)])
    out_file = tmp_path / "plan.txt"
    rc = main(["solve", "--roadmap", rm, "--scen", sc, "--agents", "1", "--s", "1.0", "--out", str(out_file)])
    assert rc == 0
    text = out_file.read_text()
    assert text == "agent 0: (0,0) (1,1) (2,2)\n"
    assert "makespan=2" in capsys.readouterr().out


def test_solve_unsolvable_swap_exits_one(tmp_path, capsys):
    rm = _line_roadmap(tmp_path)
    sc = _roadmap_scen(tmp_path, [(0, 2), (2, 0)])
    rc = main(["solve", "--roadmap", rm, "--scen", sc, "--agents", "2", "--horizon", "6"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "failure: exhausted" in captured.err
    assert "nodes_expanded=" in captured.out


def test_solve_missing_file_exits_two(tmp_path, capsys):
    rc = main(["solve", "--map", str(tmp_path / "nope.map"), "--scen", SCEN, "--agents", "1"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_solve_malformed_map_exits_two(tmp_path, capsys):
    bad = _write(tmp_path, "bad.map", "type hex\nheight 2\nwidth 2\nmap\n..\n..\n")
    rc = main(["solve", "--map", bad, "--scen", SCEN, "--agents", "1"])
    assert rc == 2
    assert "type octile" in capsys.readouterr().err


def test_solve_bad_lazy_pc_exits_two(capsys):
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--lazy-pc", "0"])
    assert rc == 2
    assert "lazy_pc" in capsys.readouterr().err


def test_solve_with_tuning(capsys):
    rc = main(
        [
            "solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--tune",
            "--budget", "4", "--population", "8", "--generations", "3", "--eval-timeout", "2.0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "s_tuned=" in out and "makespan=" in out


def test_flags_left_out_build_the_config_defaults(monkeypatch):
    seen = {}
    original = cli.solve

    def recording_solve(inst, config=None):
        seen["solve"] = config
        return original(inst, config)

    class Stop(Exception):
        pass

    def recording_tune(inst, config, *, solve_config=None, seed=0):
        seen["tune"] = (config, solve_config)
        raise Stop

    monkeypatch.setattr(cli, "solve", recording_solve)
    monkeypatch.setattr(cli, "tune_graph", recording_tune)
    assert main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1"]) == 0
    assert seen["solve"] == SolveConfig()
    with pytest.raises(Stop):
        main(["tune", "--map", MAP, "--scen", SCEN, "--agents", "1", "--s-min", "0.5", "--s-max", "2.0"])
    assert seen["tune"] == (TuneConfig(s_min=0.5, s_max=2.0), SolveConfig())


# ---------------------------------------------------------------- config file


def _config_spellings(cfg):
    """Every way argparse accepts the option: apart, joined by '=', abbreviated."""
    return (["--config", cfg], [f"--config={cfg}"], ["--conf", cfg])


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "s = 0.5\nagents = 1\n# comment line\n\n")
    for flag in _config_spellings(cfg):
        rc = main(["solve", "--map", MAP, "--scen", SCEN, *flag])
        assert rc == 0, flag
        assert "s_used=0.5" in capsys.readouterr().out, flag


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "s = 0.5\n")
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg, "--s", "2.0"])
    assert rc == 0
    assert "s_used=2.0" in capsys.readouterr().out


def test_config_boolean_and_choice_coercion(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "disjoint = true\nk = 4\n")
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg])
    assert rc == 0


def test_config_unknown_key_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "warp = 9\n")
    for flag in _config_spellings(cfg):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", *flag])
        assert exc.value.code == 2, flag
        assert "unknown key 'warp'" in capsys.readouterr().err, flag


def test_config_bad_value_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "disjoint = maybe\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg])
    assert exc.value.code == 2


def test_config_missing_equals_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "just a line\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg])
    assert exc.value.code == 2


# ---------------------------------------------------------------- tune


def test_tune_reports_and_exits_zero(tmp_path, capsys):
    rm = _line_roadmap(tmp_path)
    sc = _roadmap_scen(tmp_path, [(0, 2)])
    rc = main(
        [
            "tune", "--roadmap", rm, "--scen", sc, "--agents", "1",
            "--s-min", "0.5", "--s-max", "2.0", "--budget", "4",
            "--population", "8", "--generations", "3", "--eval-timeout", "2.0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,s,runtime_s,error,success,lcb,score,ell,sf2,sn2"
    assert len([l for l in lines if l and l[0].isdigit()]) == 4
    assert any(l.startswith("best_s=") for l in lines)


def test_tune_requires_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--map", MAP, "--scen", SCEN, "--agents", "1"])
    assert exc.value.code == 2


def test_tune_out_file(tmp_path, capsys):
    rm = _line_roadmap(tmp_path)
    sc = _roadmap_scen(tmp_path, [(0, 2)])
    report = tmp_path / "report.csv"
    rc = main(
        [
            "tune", "--roadmap", rm, "--scen", sc, "--agents", "1",
            "--s-min", "0.5", "--s-max", "2.0", "--budget", "3",
            "--population", "8", "--generations", "3", "--eval-timeout", "2.0",
            "--out", str(report),
        ]
    )
    assert rc == 0
    assert report.read_text().startswith("t,s,runtime_s,error,success,lcb,score,ell,sf2,sn2\n")


# ---------------------------------------------------------------- bench


def test_bench_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    rc = main(
        [
            "bench", "--out-dir", str(out_dir), "--seed", "0", "--timeout", "5.0",
            "--modes", "baseline", "--agents", "2", "--ks", "3", "--scenarios", "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    results = (out_dir / "results.csv").read_text()
    summary = (out_dir / "summary.csv").read_text()
    assert results.startswith("map,k,n_agents,scenario,mode,success,")
    assert len(results.splitlines()) == 1 + 2  # two map cases, one cell each
    assert summary.splitlines()[0].startswith("map,k,mode,n_agents,success_rate")
    assert (out_dir / "success_rate.dat").exists()
    assert (out_dir / "runtime.dat").exists()
    assert "wrote" in out and "summary" not in out.splitlines()[0]


# ---------------------------------------------------------------- convert


def test_convert_round_trips(tmp_path, capsys):
    rc = main(["convert", "--map", MAP, "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    want = serialize_roadmap(build_grid_graph(parse_map(Path(MAP).read_text()), 3))
    assert out == want
    back = parse_roadmap(out)
    direct = build_grid_graph(parse_map(Path(MAP).read_text()), 3)
    assert back.edges == direct.edges
    assert [v.pos for v in back.vertices] == [v.pos for v in direct.vertices]


def test_convert_out_file(tmp_path):
    out_file = tmp_path / "grid.roadmap"
    rc = main(["convert", "--map", MAP, "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_text().startswith("v ")
