"""CLI tests."""

import pytest

from repro.cli import main


def test_list_prints_ids(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table3" in out and "fig4" in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "table1" in capsys.readouterr().out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1_exact: True" in out


def test_run_fig1(capsys):
    assert main(["run", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "hpc" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.slow
def test_report_quick(capsys):
    assert main(["report", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Tables I/II: exact" in out
    for exp in ("table3", "table4", "table5", "table6"):
        assert exp in out


def test_run_table3_with_iterations(capsys):
    assert main(["run", "table3", "--iterations", "4"]) == 0
    out = capsys.readouterr().out
    assert "Baseline 2.6.24" in out
    assert "vs. paper" in out
    assert "improvement uniform over cfs" in out


def test_cluster_both_placements(capsys):
    assert main(["cluster", "--nodes", "2", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    assert "2 nodes x 4 CPUs" in out
    assert "block" in out and "gang" in out
    assert "gang speedup over block" in out


def test_cluster_single_placement(capsys):
    assert main([
        "cluster", "--nodes", "2", "--iterations", "1",
        "--placement", "gang", "--ranks", "8",
    ]) == 0
    out = capsys.readouterr().out
    assert "8 ranks" in out
    assert "gang" in out and "speedup" not in out


def test_cluster_rejects_zero_ranks(capsys):
    assert main(["cluster", "--nodes", "2", "--ranks", "0"]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--nodes", "4", "--iterations", "-1"],
        ["cluster", "--nodes", "4", "--iterations", "0"],
        ["cluster", "--nodes", "4", "--shards", "0"],
        ["run", "table3", "--iterations", "-2"],
        ["synth", "scatter", "--iterations", "0"],
        ["synth", "scatter", "--ranks", "0"],
        ["synth", "sweep", "--ranks", "0"],
        ["synth", "sweep", "--ranks", "4,-8"],
        ["synth", "sweep", "--iterations", "0"],
        ["synth", "convergence", "--ranks", "0"],
        ["synth", "convergence", "--iterations", "-3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_positive_counts_rejected_at_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 1" in captured.err


def test_synth_scatter_prints_comparison(capsys):
    assert main([
        "synth", "scatter", "--ranks", "4", "--iterations", "3",
        "--imbalance", "2.0",
    ]) == 0
    out = capsys.readouterr().out
    assert "imbalance" in out
    assert "cfs" in out and "adaptive" in out


def test_synth_scatter_json(capsys):
    import json

    assert main([
        "synth", "scatter", "--ranks", "4", "--iterations", "3",
        "--schedulers", "cfs", "--json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "cfs" in data


def test_synth_convergence_prints_metrics(capsys):
    assert main([
        "synth", "convergence", "--ranks", "4", "--iterations", "8",
        "--revert-at", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "epochs" in out
    assert "uniform" in out and "adaptive" in out


def test_synth_sweep_prints_cells(capsys):
    assert main([
        "synth", "sweep", "--imbalances", "1.0,2.0", "--ranks", "4",
        "--iterations", "2", "--schedulers", "cfs",
    ]) == 0
    out = capsys.readouterr().out
    assert "I=1" in out and "I=2" in out and "N=4" in out


def test_synth_rejects_infeasible_imbalance(capsys):
    assert main([
        "synth", "scatter", "--ranks", "4", "--imbalance", "9.0",
    ]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_validate_pool_flag(capsys):
    assert main([
        "validate", "--fuzz", "1", "--dt", "5e-5", "--pool", "synth",
    ]) == 0
    out = capsys.readouterr().out
    assert "pool=synth" in out
