"""End-to-end tests for the command-line front end.

Every test drives main() with an argv list and checks exit codes plus the
printed contract: solution lines and stats for solve, the report CSV for
tune, written artifacts for bench, byte-stable text for convert.
"""

from dataclasses import fields, replace
from pathlib import Path

import pytest

from intmapf import cli
from intmapf.bench import ResultRow, SuiteResult, TuningRecord, aggregate, desk_suite, plot_data, rows_to_csv, summary_to_csv
from intmapf.cbs import Failure, SearchStats, SolveConfig
from intmapf.cli import main
from intmapf.graph import build_grid_graph
from intmapf.mapio import parse_map, parse_roadmap, serialize_roadmap
from intmapf.tuning import Observation, TuneConfig, TuneResult, format_tune_report

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
    assert names[names.index("s_used") + 1 :] == [f.name for f in fields(SearchStats)]
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


def test_every_config_field_has_a_flag():
    # the configs are built from the flags named after their fields, so a
    # field without a flag would silently keep its default
    _, by_name = cli._build_parser()
    for command in ("solve", "tune"):
        dests = {a.dest for a in by_name[command]._actions}
        assert {f.name for f in fields(SolveConfig)} <= dests, command
        assert {f.name for f in fields(TuneConfig)} - {"restarts"} <= dests, command


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


def test_baseline_flag_beats_a_config_scale(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", "s = 0.5\n")
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg, "--baseline"])
    assert rc == 0
    assert "s_used=1.0" in capsys.readouterr().out


def test_scale_flag_beats_a_config_tune(tmp_path, capsys, monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned despite --s")

    monkeypatch.setattr(cli, "tune_graph", no_tuning)
    cfg = _write(tmp_path, "tune.cfg", "tune = true\n")
    rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg, "--s", "2.0"])
    assert rc == 0
    assert "s_used=2.0" in capsys.readouterr().out


def test_config_scale_flags_set_the_scale(tmp_path, capsys, monkeypatch):
    tuned = []
    monkeypatch.setattr(cli, "tune_graph", lambda *args, **kwargs: tuned.append(1) or TuneResult(0.75, (), (), ()))
    for text, s_used, tunes in (
        ("baseline = true\n", "1.0", 0),
        ("tune = true\n", "0.75", 1),
        ("s = 0.5\ntune = false\nbaseline = no\n", "0.5", 0),
    ):
        tuned.clear()
        cfg = _write(tmp_path, "run.cfg", text)
        rc = main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--config", cfg])
        assert rc == 0, text
        assert f"s_used={s_used}" in capsys.readouterr().out, text
        assert len(tuned) == tunes, text


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
    assert lines[0] == "s,runtime,success,error,lcb,score,ell,sf2,sn2,nll,nfev"
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
    assert report.read_text().startswith("s,runtime,success,error,lcb,score,ell,sf2,sn2,nll,nfev\n")


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


def _bench_spec(monkeypatch, argv):
    """The ExperimentSpec `intmapf bench argv` would run."""
    seen = []

    class Stop(Exception):
        pass

    def recording_run_suite(spec):
        seen.append(spec)
        raise Stop

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)
    with pytest.raises(Stop):
        main(["bench", *argv])
    return seen[0]


def _spec_key(spec):
    return (
        spec.agent_counts, spec.modes, spec.fixed_s, spec.solver, spec.seed, spec.workers,
        [(c.name, c.k, c.scenarios) for c in spec.cases],
    )


def test_bench_defaults_come_from_desk_suite(tmp_path, monkeypatch):
    assert _spec_key(_bench_spec(monkeypatch, [])) == _spec_key(desk_suite())
    cfg = _write(tmp_path, "bench.cfg", "timeout = 2.5\nagents = 3 5\nscenarios = 2\nks = 5\nfixed_s = 0.5\n")
    from_file = replace(desk_suite(timeout=2.5, agent_counts=(3, 5), scenarios_per_case=2, ks=(5,)), fixed_s=0.5)
    assert _spec_key(_bench_spec(monkeypatch, ["--config", cfg])) == _spec_key(from_file)
    flags = ["--timeout", "4.0", "--agents", "2", "--modes", "fixed", "--seed", "3", "--workers", "2"]
    assert _spec_key(_bench_spec(monkeypatch, flags)) == _spec_key(
        desk_suite(timeout=4.0, agent_counts=(2,), modes=("fixed",), seed=3, workers=2)
    )
    # an explicit flag beats the file; the file's other keys still apply
    mixed = _bench_spec(monkeypatch, ["--config", cfg, "--timeout", "4.0", "--agents", "2"])
    assert _spec_key(mixed) == _spec_key(
        replace(desk_suite(timeout=4.0, agent_counts=(2,), scenarios_per_case=2, ks=(5,)), fixed_s=0.5)
    )


# ---------------------------------------------------------------- golden text

# hand-made records and, byte for byte, the text the hand-written writers
# printed for them before the writers followed the dataclass fields; the
# differences are the results.csv column ct_nodes, now nodes_expanded, and the
# tune report, whose columns are now the fields of Observation in field order
# (no t column, runtime_s is runtime, and each pick's fit adds nll and nfev)
_GOLDEN_ROWS = (
    ResultRow("line-3", None, 2, 0, "baseline", True, 4, 0.125, 3, 7, 1.0, 0.0),
    ResultRow("m", 3, 4, 1, "tuned", True, 10, 0.5, 5, 9, 0.7071067811865476, 1.2345678901234567),
    ResultRow("m", 3, 4, 2, "tuned", False, None, 10.000123, 12345, 67890, 0.7071067811865476, None),
    ResultRow("m", 4, 8, 0, "fixed", False, None, 1.5, 2, 3, 0.5, None),
)
_GOLDEN_TUNING = (
    TuningRecord("m", 3, 0.8660254037844386, 1.2345, 6, False),
    TuningRecord("empty-16-16", 4, 1.0, 0.5, 6, True),
)
_GOLDEN_RESULTS_CSV = (
    "map,k,n_agents,scenario,mode,success,makespan,runtime_s,nodes_expanded,ll_calls,s_used,error\n"
    "line-3,,2,0,baseline,true,4,0.125,3,7,1.0,0.0\n"
    "m,3,4,1,tuned,true,10,0.5,5,9,0.7071067811865476,1.2345678901234567\n"
    "m,3,4,2,tuned,false,,10.000123,12345,67890,0.7071067811865476,\n"
    "m,4,8,0,fixed,false,,1.5,2,3,0.5,\n"
)
_GOLDEN_SUMMARY_CSV = (
    "map,k,mode,n_agents,success_rate,mean_runtime_s,makespan_q1,makespan_median,makespan_q3\n"
    "line-3,,baseline,2,100.0,0.125,4.0,4.0,4.0\n"
    "m,3,tuned,4,50.0,0.5,10.0,10.0,10.0\n"
    "m,4,fixed,8,0.0,--,--,--,--\n"
)
_GOLDEN_SUCCESS_DAT = "2 100.0 line-3-baseline\n4 50.0 m-k3-tuned\n8 0.0 m-k4-fixed\n"
_GOLDEN_RUNTIME_DAT = "2 0.125 line-3-baseline\n4 0.5 m-k3-tuned\n"


def test_writers_match_the_golden_text():
    summaries = aggregate(_GOLDEN_ROWS)
    assert rows_to_csv(_GOLDEN_ROWS) == _GOLDEN_RESULTS_CSV
    assert summary_to_csv(summaries) == _GOLDEN_SUMMARY_CSV
    assert plot_data(summaries, "success_rate") == _GOLDEN_SUCCESS_DAT
    assert plot_data(summaries, "mean_runtime_s") == _GOLDEN_RUNTIME_DAT
    observations = (
        Observation(0.5, 0.0123, True, 2.5),
        Observation(0.8660254037844386, 0.01, False, 1.25, -0.3, 0.75, 0.42, 1.7, 1e-08, -3.125, 57),
    )
    assert format_tune_report(TuneResult(0.5, observations, (), ())) == (
        "s,runtime,success,error,lcb,score,ell,sf2,sn2,nll,nfev\n"
        "0.5,0.0123,true,2.5,,,,,,,\n"
        "0.8660254037844386,0.01,false,1.25,-0.3,0.75,0.42,1.7,1e-08,-3.125,57\n"
    )


def test_solve_stat_lines_match_the_golden_text(monkeypatch, capsys):
    stats = SearchStats(
        nodes_generated=12, nodes_expanded=5, low_level_calls=20, plans_reused=3,
        picked_cardinal=2, picked_semi=1, picked_non=1, pairs_reused=7, wall_time=0.015625,
    )
    monkeypatch.setattr(cli, "solve", lambda inst, config=None: Failure("timeout", stats))
    assert main(["solve", "--map", MAP, "--scen", SCEN, "--agents", "1", "--s", "0.5"]) == 1
    assert capsys.readouterr().out == (
        "s_used=0.5\nnodes_generated=12\nnodes_expanded=5\nlow_level_calls=20\npicked_cardinal=2\n"
        "picked_semi=1\npicked_non=1\nplans_reused=3\npairs_reused=7\nwall_time=0.015625\n"
    )


def test_bench_output_matches_the_golden_text(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda spec: SuiteResult(_GOLDEN_ROWS, _GOLDEN_TUNING))
    assert main(["bench", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "tuned map=m k=3 s=0.8660254037844386 wall_time=1.2345 evaluations=6 fallback=false\n"
        "tuned map=empty-16-16 k=4 s=1.0 wall_time=0.5 evaluations=6 fallback=true\n"
        + _GOLDEN_SUMMARY_CSV
        + f"wrote {tmp_path / 'results.csv'}\n"
    )
    assert (tmp_path / "results.csv").read_text() == _GOLDEN_RESULTS_CSV
    assert (tmp_path / "summary.csv").read_text() == _GOLDEN_SUMMARY_CSV
    assert (tmp_path / "success_rate.dat").read_text() == _GOLDEN_SUCCESS_DAT
    assert (tmp_path / "runtime.dat").read_text() == _GOLDEN_RUNTIME_DAT


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
