import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sidlalab
from sidlalab import analysis, cli, coupling, fpp, sidla
from sidlalab.cli import EXIT_CONFIG, EXIT_FAULT, main
from sidlalab.errors import CouplingFault
from sidlalab.fileio import atomic_write_text, json_text
from sidlalab.fpp import load_snapshot
from sidlalab.lattice import Window


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_fpp_writes_snapshot(capsys):
    code = run("fpp", "--seed", "3", "-W", "8", "-M", "6", "--out", "f.json")
    assert code == 0
    out = capsys.readouterr().out
    assert "fpp seed=3 window=8x6 profile=stretch interior=48" in out
    snap = load_snapshot("f.json")
    assert snap.window.W == 8 and snap.window.M == 6
    assert snap.value_key == "dist"


def test_fpp_replicas_suffix_seed(capsys):
    code = run("fpp", "--seed", "5", "-W", "6", "-M", "4",
               "--replicas", "2", "--out", "multi.json")
    assert code == 0
    assert Path("multi_s5.json").exists()
    assert Path("multi_s6.json").exists()


def test_fpp_rejects_bad_window(capsys):
    code = run("fpp", "-W", "2", "-M", "4")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_config_error(capsys):
    assert run("fpp", "--bogus") == 1
    assert run("nonsense") == 1


def test_sidla_writes_snapshot_and_events(capsys):
    code = run("sidla", "--seed", "2", "-W", "6", "-M", "4",
               "--method", "jumps", "--out", "run.json")
    assert code == 0
    out = capsys.readouterr().out
    assert "sidla seed=2 window=6x4 method=jumps rings=24" in out
    snap = load_snapshot("run_s2.json")
    assert snap.value_key == "occupancy_time"
    events = Path("run_s2_events.csv").read_text()
    assert events.startswith("site_x,time,outcome,edge")


def test_sidla_prints_the_driver_that_ran(capsys):
    """--method auto picks the rings driver for a cap of 4 and says so."""
    assert run("sidla", "--seed", "2", "-W", "6", "-M", "4", "--method", "auto",
               "--out", "run.json") == 0
    assert "sidla seed=2 window=6x4 method=rings rings=" in capsys.readouterr().out


def test_couple_report_and_gaps(capsys):
    code = run("couple", "--seed", "1", "-W", "12", "-M", "6",
               "--repeats", "full", "--out", "rep.json",
               "--gaps-out", "gaps.csv")
    assert code == 0
    out = capsys.readouterr().out
    assert "couple seed=1 forest_equal=true" in out
    assert "couple total replicas=1 forest_equal=true" in out
    payload = json.loads(Path("rep.json").read_text())
    assert payload["forest_equal"] is True
    assert set(payload) == {"forest_equal", "n_gaps", "ks_stat", "ks_p",
                            "censored_count"}
    gaps = Path("gaps.csv").read_text().strip().split("\n")
    assert gaps[0] == "site_x,gap"
    assert len(gaps) == payload["n_gaps"] + 1


def test_couple_bad_horizon(capsys):
    assert run("couple", "--horizon-factor", "0.5", "-W", "8", "-M", "4") == 1


@pytest.mark.parametrize("flag", ["--out", "--gaps-out"])
def test_couple_refuses_a_missing_directory_before_any_replica(flag, in_tmp, capsys):
    """Either destination in a missing directory is refused before any
    replica runs, so no replica line is printed and nothing is written."""
    paths = {"--out": "c.json", "--gaps-out": "g.csv"}
    paths[flag] = "missing/" + paths[flag]
    assert run("couple", "-W", "8", "-M", "4", "--out", paths["--out"],
               "--gaps-out", paths["--gaps-out"]) == 1
    out, err = capsys.readouterr()
    assert f"cannot write {paths[flag]}: directory {in_tmp / 'missing'} does not exist" in err
    assert out == ""
    assert not list(Path(".").iterdir())


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output was refused")


@pytest.mark.parametrize("gaps", ["same.json", "./same.json"])
def test_couple_refuses_two_outputs_naming_one_file(gaps, monkeypatch, capsys):
    """The gaps CSV would overwrite the report; both paths are named and
    refused before any replica runs, and nothing is written."""
    monkeypatch.setattr(cli, "_couple_task", _no_work)
    assert run("couple", "-W", "8", "-M", "4", "--out", "same.json",
               "--gaps-out", gaps) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert f"cannot write same.json and {gaps}: they name one file" in err
    assert out == ""
    assert not list(Path(".").iterdir())


@pytest.mark.parametrize("argv,module,target", [
    (["fpp", "-W", "8", "-M", "4", "--replicas", "2"], cli, "_fpp_task"),
    (["sidla", "-W", "8", "-M", "4"], cli, "_sidla_task"),
    (["stats", "-W", "8", "-M", "4"], cli, "_stats_task"),
    (["compare", "-W", "8", "-M", "4", "--replicas", "40"], cli, "_compare_task"),
    (["render", "-W", "8", "-M", "4"], cli, "_picture_run"),
    (["render", "--in", "f.json"], fpp, "load_snapshot"),
], ids=["fpp", "sidla", "stats", "compare", "render", "render-in"])
def test_a_missing_output_directory_is_refused_before_any_work(argv, module, target, in_tmp,
                                                               monkeypatch, capsys):
    """Every command that writes checks its outputs first: no replica runs,
    no forest is sampled or loaded, nothing is printed and nothing is
    written."""
    monkeypatch.setattr(module, target, _no_work)
    assert run(*argv, "--out", "missing/x.out") == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "cannot write missing/x.out" in err  # fpp and sidla name their first seed's file
    assert f"directory {in_tmp / 'missing'} does not exist" in err
    assert out == ""
    assert not list(Path(".").iterdir())


@pytest.mark.parametrize("factor,why", [
    ("nan", "horizon factor must be >= 1"),
    ("inf", "horizon inf is not finite"),
    ("1e308", "horizon inf is not finite"),  # the product overflows
])
def test_couple_refuses_a_horizon_that_is_not_finite(factor, why, monkeypatch, capsys):
    def no_rings(*args, **kwargs):
        raise AssertionError("rings generated for a horizon that is not finite")

    monkeypatch.setattr(coupling.AuxClockField, "offsets", no_rings)
    for repeats in ("auto", "full"):
        assert run("couple", "--horizon-factor", factor, "--repeats", repeats,
                   "-W", "8", "-M", "4", "--out", "c.json", "--gaps-out", "g.csv") == 1
        assert why in capsys.readouterr().err
    assert not list(Path(".").iterdir())


def test_couple_reports_no_gap_test_below_ten_gaps(capsys):
    """A 2x1 window rings one gap: too few for the exponential gap test, so
    the report holds null statistics and the run still passes."""
    assert run("couple", "-W", "2", "-M", "1", "--repeats", "base", "--out", "c.json",
               "--gaps-out", "g.csv") == 0
    assert "n_gaps=1 ks_stat=null ks_p=null censored=1 wrote=c.json" in capsys.readouterr().out
    assert json.loads(Path("c.json").read_text()) == {
        "forest_equal": True, "n_gaps": 1, "ks_stat": None, "ks_p": None, "censored_count": 1}
    assert len(Path("g.csv").read_text().splitlines()) == 2


def test_couple_names_exact_zero_gaps(capsys):
    """Decreasing rates at M=64 make float ties between ring times; the
    error names the zero gaps, the profile and M, and nothing is written."""
    assert run("couple", "-W", "64", "-M", "64", "--profile", "decreasing",
               "--repeats", "base", "--out", "c.json", "--gaps-out", "g.csv") == 1
    err = capsys.readouterr().err
    assert "1229 of 8120 ring gaps are exact zeros" in err
    assert "decreasing profile at M=64" in err
    assert not Path("c.json").exists() and not Path("g.csv").exists()


def test_couple_guards_zero_gaps_pooled_from_small_replicas(monkeypatch, capsys):
    """Replicas of fewer than 10 gaps each still reach the pooled gap test,
    so the exact-zero guard runs on the pooled sample."""
    verify = coupling.verify_coupling

    def few_gaps(seed, window, **kwargs):
        rep = verify(seed, window, **kwargs)
        gaps = np.array([0.0, 1.0, 0.5, 2.0, 0.25, 1.5]) if seed == 1 else np.ones(6)
        return dataclasses.replace(rep, gap_sites=np.zeros(6, dtype=np.int64),
                                   gap_sample=gaps)

    monkeypatch.setattr(coupling, "verify_coupling", few_gaps)
    assert run("couple", "-W", "8", "-M", "4", "--replicas", "2",
               "--repeats", "base", "--out", "c.json", "--gaps-out", "g.csv") == 1
    err = capsys.readouterr().err
    assert "1 of 12 ring gaps are exact zeros" in err
    assert "stretch profile at M=4" in err
    assert not Path("c.json").exists() and not Path("g.csv").exists()


@pytest.mark.parametrize("command,profile", [("stats", "eden"), ("render", "decreasing")])
def test_particle_picture_refuses_other_profiles(command, profile, capsys):
    """The particle drivers run the stretch rates only; another profile is
    refused before any work, naming it, and nothing is written."""
    assert run(command, "--picture", "sidla", "--profile", profile,
               "-W", "16", "-M", "8", "--out", "out.x") == EXIT_CONFIG
    assert f"--profile {profile}" in capsys.readouterr().err
    assert not Path("out.x").exists()


@pytest.mark.parametrize("command", ["stats", "render"])
def test_fpp_picture_refuses_a_method(command, capsys):
    """--method picks a particle driver; given with the fpp picture it is
    refused, naming it, and nothing is written."""
    assert run(command, "--picture", "fpp", "--method", "rings",
               "-W", "8", "-M", "4", "--out", "out.x") == EXIT_CONFIG
    assert "--method rings" in capsys.readouterr().err
    assert not Path("out.x").exists()


@pytest.mark.parametrize("command", ["fpp", "couple", "stats", "render"])
def test_unknown_profile_is_refused(command, capsys):
    assert run(command, "--profile", "bogus", "-W", "8", "-M", "4",
               "--out", "out.x") == EXIT_CONFIG
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not Path("out.x").exists()


def test_render_in_refuses_sampling_options(capsys):
    """A snapshot carries its own window and seed; a sampling option given
    next to --in is refused, naming it, and no SVG is written.  The drawing
    options still apply."""
    assert run("fpp", "-W", "8", "-M", "4", "--out", "f.json") == 0
    for extra in (["--seed", "1"], ["-W", "99", "-M", "3"], ["--picture", "fpp"],
                  ["--profile", "stretch"], ["--method", "rings"]):
        assert run("render", "--in", "f.json", *extra, "--out", "x.svg") == EXIT_CONFIG
        assert f"takes no {extra[0]}" in capsys.readouterr().err
    assert run("render", "--in", "f.json", "--seed", "5", "--picture", "sidla",
               "--out", "x.svg") == EXIT_CONFIG
    assert "takes no --seed, --picture" in capsys.readouterr().err
    assert not Path("x.svg").exists()
    assert run("render", "--in", "f.json", "--highlight-root", "none",
               "--scale", "6", "--max-level", "2", "--out", "x.svg") == 0
    assert Path("x.svg").exists()


SEED_COMMANDS = ["fpp", "sidla", "couple", "stats", "compare", "render"]


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("seed", [str(2**64 + 1), "-1", str(2**64)])
def test_seeds_outside_64_bits_are_refused(command, seed, capsys):
    """The hash reduces seeds mod 2**64, so 2**64 + 1 would write seed 1's
    forest under another seed's name and -1 would alias 2**64 - 1."""
    assert run(command, "--seed", seed, "-W", "8", "-M", "4") == EXIT_CONFIG
    assert f"seeds must lie in 0..2**64-1, got {seed}.." in capsys.readouterr().err
    assert not list(Path(".").iterdir())


@pytest.mark.parametrize("command", [c for c in SEED_COMMANDS if c != "render"])
def test_replica_seeds_past_64_bits_are_refused(command, monkeypatch, capsys):
    """The seed range is refused before any output path is formed, so a
    huge --replicas is refused at once."""
    monkeypatch.setattr(cli, "_out_path", _no_work)
    last = 2**64 - 1
    assert run(command, "--seed", str(last - 1), "--replicas", "3",
               "-W", "8", "-M", "4") == EXIT_CONFIG
    assert f"got {last - 1}..{last + 1}" in capsys.readouterr().err
    assert not list(Path(".").iterdir())


@pytest.mark.parametrize("command", [c for c in SEED_COMMANDS if c != "render"])
@pytest.mark.parametrize("flag", ["--replicas", "--jobs"])
def test_replicas_and_jobs_below_one_are_refused(command, flag, capsys):
    assert run(command, flag, "0", "-W", "8", "-M", "4") == EXIT_CONFIG
    assert f"{flag[2:]} must be >= 1, got 0" in capsys.readouterr().err
    assert not list(Path(".").iterdir())


def test_the_largest_seed_is_taken(capsys):
    last = 2**64 - 1
    assert run("fpp", "--seed", str(last - 1), "--replicas", "2", "-W", "4", "-M", "2",
               "--out", "f.json") == 0
    assert load_snapshot(f"f_s{last}.json").seed == last
    assert run("render", "--seed", str(last), "-W", "4", "-M", "2", "--out", "r.svg") == 0


def test_render_takes_no_replica_options(capsys):
    for flag in ("--replicas", "--jobs"):
        assert run("render", flag, "2", "-W", "8", "-M", "4") == EXIT_CONFIG
    assert not list(Path(".").iterdir())


def test_shells_exact_line(capsys):
    assert run("shells", "--max-edges", "2") == 0
    assert capsys.readouterr().out == "LEMMA22 PASS k=2 trees=8\n"
    assert run("shells", "--max-edges", "0") == 0
    assert capsys.readouterr().out == "LEMMA22 PASS k=0 trees=1\n"


def test_shells_guard(capsys):
    assert run("shells", "--max-edges", "13") == 1
    assert run("shells", "--max-edges", "-1") == 1


@pytest.mark.parametrize("k,line", [
    (2, "LEMMA22 FAIL k=2 edges=[0,0,L;0,0,R] sum=1\n"),
    (3, "LEMMA22 FAIL k=3 edges=[-1,1,L;0,0,L;0,0,R] sum=1\n"),
])
def test_shells_failure_line(k, line, monkeypatch, capsys):
    """The first tree with k edges that fails the check is printed with its
    edges as sorted "x,y,L|R" texts and its shell sum, and shells exits 2."""
    monkeypatch.setattr(analysis, "shell_identity_check", lambda tree: len(tree.edges) < k)
    assert run("shells", "--max-edges", str(k)) == 2
    assert capsys.readouterr().out == line


def test_shells_prints_a_failing_sum_as_a_reduced_fraction(monkeypatch, capsys):
    detached = analysis.MonotoneTree(0, frozenset([(1, 1, 0)]))  # sum 10/8
    monkeypatch.setattr(analysis, "enumerate_monotone_trees", lambda k: iter([detached]))
    assert run("shells", "--max-edges", "1") == 2
    assert capsys.readouterr().out == "LEMMA22 FAIL k=1 edges=[1,1,L] sum=5/4\n"


@pytest.mark.parametrize("out", ["f.json", "./f.json"])
def test_render_refuses_to_write_over_its_input(out, capsys):
    assert run("fpp", "-W", "8", "-M", "4", "--out", "f.json") == 0
    before = Path("f.json").read_bytes()
    assert run("render", "--in", "f.json", "--out", out) == EXIT_CONFIG
    assert "over the snapshot f.json" in capsys.readouterr().err
    assert Path("f.json").read_bytes() == before


def test_render_rejects_a_missing_or_malformed_snapshot(capsys):
    assert run("render", "--in", "nope.json", "--out", "x.svg") == EXIT_CONFIG
    assert "cannot read snapshot nope.json" in capsys.readouterr().err
    Path("broken.json").write_text('{"window": {"W": 4,')
    assert run("render", "--in", "broken.json", "--out", "x.svg") == EXIT_CONFIG
    assert "cannot read snapshot broken.json" in capsys.readouterr().err
    assert not Path("x.svg").exists()


@pytest.mark.parametrize("flag,value", [("--scale", "0"), ("--max-level", "-1"),
                                        ("--scale", "inf"), ("--scale", "1e308")])
def test_render_rejects_bad_options(flag, value, capsys):
    assert run("render", "-W", "6", "-M", "4", flag, value, "--out", "x.svg") == EXIT_CONFIG
    assert not Path("x.svg").exists()


@pytest.mark.parametrize("width,written,off", [("50000", "1.00004e+06", "0.333 of"),
                                               ("500000", "1.00002e+07", "4 of")])
def test_render_refuses_coordinates_six_digits_cannot_hold(width, written, off, capsys,
                                                           monkeypatch):
    """Coordinates are written with 6 significant digits.  At 50,000 columns
    an x would read back a third of a lattice step off; at 500,000 the
    boundary circles would share 20,001 cx texts among 83,334 of them.
    Both drawings are refused before any forest is sampled, and nothing is
    written."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("the forest was sampled before the drawing was refused")

    monkeypatch.setattr(cli, "_picture_run", no_sampling)
    assert run("render", "-W", width, "-M", "1", "--out", "x.svg") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "needs more than 6 significant digits" in err
    assert f"written {written}, {off} a lattice step off (at most 0.01)" in err
    assert not Path("x.svg").exists()


def test_render_in_refuses_coordinates_six_digits_cannot_hold(capsys):
    """A 50,000-column snapshot is refused as the sampled drawing is, and
    nothing is written."""
    assert run("fpp", "-W", "50000", "-M", "1", "--out", "f.json") == 0
    assert run("render", "--in", "f.json", "--out", "x.svg") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "the 50000x1 drawing at scale 12 needs more than 6 significant digits" in err
    assert "written 1.00004e+06, 0.333 of a lattice step off (at most 0.01)" in err
    assert not Path("x.svg").exists()


def test_fpp_refuses_an_unrepresentable_rate(capsys):
    """2**1024, the decreasing rate at level 1024, is no double."""
    assert run("fpp", "-W", "1024", "-M", "1024", "--profile", "decreasing",
               "--out", "f.json") == EXIT_CONFIG
    assert "decreasing rate at level M=1024" in capsys.readouterr().err
    assert not Path("f.json").exists()


def test_compare_refuses_an_unrepresentable_rate(capsys):
    """The fpp picture runs on levels 0..clip alone, yet a cap whose
    stretch rate (2**-1075) is no positive double is still refused, before
    any replica runs."""
    assert run("compare", "-W", "1075", "-M", "1075", "--replicas", "2",
               "--out", "c.json") == EXIT_CONFIG
    assert "stretch rate at level M=1075" in capsys.readouterr().err
    assert not Path("c.json").exists()


@pytest.mark.parametrize("argv", [("sidla",), ("sidla", "--method", "rings"),
                                  ("stats", "--picture", "sidla"),
                                  ("render", "--picture", "sidla")])
def test_particle_picture_refuses_the_cap_fpp_refuses(argv, monkeypatch, capsys):
    """The particle drivers take their rates from the run's stretch
    WeightField, so the cap whose rate (2**-1075) is no positive double is
    refused with the fpp picture's message before any event runs, and
    nothing is written."""
    monkeypatch.setattr(sidla, "_run_jumps", _no_work)
    monkeypatch.setattr(sidla, "_run_rings", _no_work)
    assert run(*argv, "-W", "1075", "-M", "1075", "--out", "x.out") == EXIT_CONFIG
    assert ("error: the stretch rate at level M=1075 is not a positive finite double"
            in capsys.readouterr().err)
    assert not list(Path(".").iterdir())


def test_an_exhausted_ring_budget_is_a_usage_error(monkeypatch, capsys):
    """The rings driver's budget (DEFAULT_RING_BUDGET_FACTOR * W * M rings)
    running out is a ConfigError: exit 1, the budget named, nothing
    written."""
    monkeypatch.setattr(sidla, "DEFAULT_RING_BUDGET_FACTOR", 1)
    assert run("sidla", "--method", "rings", "-W", "6", "-M", "4",
               "--out", "run.json") == EXIT_CONFIG
    assert ("error: levels 1..4 not final after 24 rings (W=6, M=4)"
            in capsys.readouterr().err)
    assert not list(Path(".").iterdir())


@pytest.mark.parametrize("command", ["stats", "render"])
def test_overflowed_passage_times_are_refused(command, capsys):
    """From level 1023 (seed 1) the stretch passage times pass the largest
    double, where ties between two infinite candidates would set parents by
    rule: every command that builds a forest refuses it, names the level,
    writes nothing and lets no numpy warning through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, "-W", "1074", "-M", "1074", "--out", "x.out") == EXIT_CONFIG
    assert caught == []
    err = capsys.readouterr().err
    assert "error: dist is not finite at level 1023 (stretch, 1074x1074)" in err
    assert "RuntimeWarning" not in err
    assert not list(Path(".").iterdir())


@pytest.mark.parametrize("flag,value,why", [
    ("--slim-d", "0", "slim threshold must be positive, got 0.0"),
    ("--levels", "0,3", "levels must lie in 1..4, got [0, 3]"),
    ("--levels", "a", "levels must be comma-separated integers, got 'a'"),
])
def test_stats_rejects_bad_options(flag, value, why, capsys):
    assert run("stats", "-W", "8", "-M", "4", flag, value, "--out", "s.csv") == EXIT_CONFIG
    assert why in capsys.readouterr().err
    assert not Path("s.csv").exists()


def test_stats_rejects_a_bad_kappa(capsys):
    assert run("stats", "-W", "8", "-M", "4", "--flank-levels", "2",
               "--kappa", "abc", "--out", "s.csv") == EXIT_CONFIG
    assert "kappa must be comma-separated numbers" in capsys.readouterr().err
    assert not Path("s.csv").exists()


@pytest.mark.parametrize("kappa", ["0.5", "1", "2,nan"])
def test_stats_rejects_a_kappa_not_above_one(kappa, capsys):
    assert run("stats", "-W", "8", "-M", "4", "--flank-levels", "2",
               "--kappa", kappa, "--out", "s.csv") == EXIT_CONFIG
    assert "kappa must exceed 1" in capsys.readouterr().err
    assert not Path("s.csv").exists()


def test_missing_output_directory_is_a_config_error(in_tmp, capsys):
    assert run("fpp", "-W", "8", "-M", "4", "--out", "missing/x.json") == EXIT_CONFIG
    assert "directory" in capsys.readouterr().err
    assert list(in_tmp.iterdir()) == []
    (in_tmp / "d").mkdir()
    assert run("fpp", "-W", "8", "-M", "4", "--out", "d") == EXIT_CONFIG
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in in_tmp.rglob("*")] == ["d"]


def test_failed_write_leaves_no_temp_file(in_tmp, monkeypatch):
    def broken(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", broken)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_text("x.txt", b"text")
    assert list(in_tmp.iterdir()) == []


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs,cpus,workers", [
    ("5000", 8, [2]), ("5000", 1, []), ("2", 8, [2]), ("3", 2, [2]), ("1", 8, [])])
def test_jobs_are_clamped_to_tasks_and_cpus(jobs, cpus, workers, monkeypatch, capsys):
    """A fork pool starts every worker up front, so --jobs is clamped to
    the replicas and the CPUs, and one worker runs serially."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run("fpp", "-W", "6", "-M", "4", "--replicas", "2", "--jobs", jobs,
               "--out", "j.json") == 0
    assert _RecordingPool.made == workers
    assert Path("j_s1.json").exists() and Path("j_s2.json").exists()


@pytest.mark.parametrize("clip", ["0", "-3"])
def test_compare_refuses_a_height_clip_below_one(clip, capsys):
    """A clip below 1 maps every height to one bin, a vacuous test."""
    assert run("compare", "-W", "16", "-M", "8", "--replicas", "20",
               "--height-clip", clip, "--out", "c.json") == EXIT_CONFIG
    assert "height clip must be >= 1" in capsys.readouterr().err
    assert not Path("c.json").exists()


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_compare_refuses_an_alpha_outside_the_open_unit_interval(alpha, capsys):
    assert run("compare", "-W", "16", "-M", "8", "--alpha", alpha,
               "--out", "c.json") == EXIT_CONFIG
    assert f"alpha must lie in (0,1), got {float(alpha)}" in capsys.readouterr().err
    assert not Path("c.json").exists()


def test_compare_rejects_samples_too_small(capsys):
    assert run("compare", "-W", "6", "-M", "3", "--replicas", "2",
               "--out", "c.json") == EXIT_CONFIG
    assert "samples too small" in capsys.readouterr().err
    assert not Path("c.json").exists()


def test_internal_value_error_is_a_fault(monkeypatch, capsys):
    """Only ConfigError and an exhausted ring budget are usage errors; any
    other ValueError is a bug and exits 3."""
    def broken(field):
        raise ValueError("broken level program")
    monkeypatch.setattr(fpp, "build_forest", broken)
    assert run("fpp", "-W", "8", "-M", "4", "--out", "f.json") == EXIT_FAULT
    assert "internal fault: ValueError: broken level program" in capsys.readouterr().err
    assert not Path("f.json").exists()


def test_a_coupling_fault_is_an_internal_fault(monkeypatch, capsys):
    """A replay that contradicts the forest is a bug: exit 3, named by its
    type like any other fault, and nothing is written."""
    def broken(rings):
        raise CouplingFault("ring 3 claims a claimed vertex")
    monkeypatch.setattr(coupling, "replay", broken)
    assert run("couple", "-W", "8", "-M", "4", "--out", "c.json",
               "--gaps-out", "g.csv") == EXIT_FAULT
    assert "internal fault: CouplingFault: ring 3 claims" in capsys.readouterr().err
    assert not list(Path(".").iterdir())


def test_stats_survival_csv(capsys):
    code = run("stats", "--seed", "4", "-W", "16", "-M", "8",
               "--replicas", "3", "--levels", "1,2,4,8",
               "--out", "surv.csv")
    assert code == 0
    out = capsys.readouterr().out
    assert "stats picture=fpp replicas=3 roots=48" in out
    assert "mean_slim_fraction" in out
    rows = Path("surv.csv").read_text().strip().split("\n")
    assert rows[0] == "level,n,survival,ci_low,ci_high"
    assert len(rows) == 5
    surv = [float(r.split(",")[2]) for r in rows[1:]]
    assert surv == sorted(surv, reverse=True)


@pytest.mark.parametrize("M,levels", [(1, [1]), (5, [1, 2, 4, 5]), (8, [1, 2, 4, 8])])
def test_stats_default_levels_are_powers_of_two_and_the_cap(M, levels):
    assert run("stats", "-W", "8", "-M", str(M), "--out", "s.csv") == 0
    rows = Path("s.csv").read_text().strip().split("\n")[1:]
    assert [int(r.split(",")[0]) for r in rows] == levels


def test_render_in_refuses_a_non_finite_value(capsys):
    assert run("fpp", "--seed", "5", "-W", "4", "-M", "3", "--out", "f.json") == 0
    text = Path("f.json").read_text()
    last = text.rindex('"dist": ') + len('"dist": ')  # a top-level vertex
    Path("f.json").write_text(text[:last] + "Infinity" + text[text.index(",", last):])
    capsys.readouterr()
    assert run("render", "--in", "f.json", "--out", "r.svg") == EXIT_CONFIG
    assert "is not finite" in capsys.readouterr().err
    assert not Path("r.svg").exists()


def test_stats_flank_skip_on_small_sample(capsys):
    code = run("stats", "--seed", "4", "-W", "16", "-M", "8",
               "--flank-levels", "2", "--kappa", "2",
               "--out", "s.csv")
    assert code == 0
    out = capsys.readouterr().out
    assert "flank n=2" in out
    assert "skipped" in out  # one window provides fewer than 100 samples


def test_stats_flank_bound_with_enough_replicas(capsys):
    code = run("stats", "--seed", "4", "-W", "16", "-M", "8",
               "--replicas", "12", "--flank-levels", "2",
               "--kappa", "2,4", "--out", "s.csv")
    assert code == 0
    lines = [l for l in capsys.readouterr().out.split("\n")
             if l.startswith("flank n=2")]
    assert len(lines) == 2
    assert all(l.endswith("pass") for l in lines), lines


def test_compare_small(capsys):
    code = run("compare", "--seed", "1", "-W", "6", "-M", "3",
               "--replicas", "40", "--alpha", "1e-9",
               "--out", "cmp.json")
    assert code == 0
    out = capsys.readouterr().out
    assert "compare slice1 chi2=" in out
    assert "compare height chi2=" in out
    payload = json.loads(Path("cmp.json").read_text())
    assert 0.0 <= payload["slice1"]["p_value"] <= 1.0


@pytest.mark.parametrize("method", ["rings", "jumps"])
def test_compare_stops_particle_runs_at_the_clip_with_the_full_runs_report(
        method, capsys, monkeypatch):
    """compare stops each particle run once root 0's tree is final on
    levels 0..clip and runs the fpp DP on the window cut at the clip; its
    report is the one computed here from full runs of both pictures."""
    W, M, clip, seeds = 16, 8, 4, range(3, 43)
    win = Window(W, M)
    samples = {"fpp": ([], []), "sidla": ([], [])}
    for seed in seeds:
        fo = fpp.build_forest(fpp.WeightField(seed, fpp.WeightProfile.STRETCH, win))
        st = sidla.run_until_covered(win, seed, method=method).forest
        assert (st.root_x >= 0).all()
        for picture, forest in (("fpp", fo), ("sidla", st)):
            samples[picture][0].append(analysis.level_profile(forest, 0, 1))
            samples[picture][1].append(min(int(analysis.root_heights(forest)[0][0]), clip))
    r_t1, r_h = (analysis.chi_square_compare(analysis.histogram(samples["fpp"][i]),
                                             analysis.histogram(samples["sidla"][i]))
                 for i in (0, 1))
    want = {"replicas": 40, "alpha": 0.01,
            "slice1": {"statistic": r_t1.statistic, "p_value": r_t1.p_value},
            "height": {"statistic": r_h.statistic, "p_value": r_h.p_value}}
    stops, run_particles = [], sidla.run_until_covered
    monkeypatch.setattr(sidla, "run_until_covered", lambda *a, **kw: stops.append(
        (kw["up_to"], kw["root"])) or run_particles(*a, **kw))
    windows, build = [], fpp.build_forest
    monkeypatch.setattr(fpp, "build_forest",
                        lambda field: windows.append(field.window) or build(field))
    code = run("compare", "-W", "16", "-M", "8", "--height-clip", "4", "--method", method,
               "--seed", "3", "--replicas", "40", "--out", "c.json")
    assert stops == [(clip, 0)] * 40
    assert windows == [Window(W, clip)] * 40
    assert code == (0 if min(r_t1.p_value, r_h.p_value) > 0.01 else 2)
    assert Path("c.json").read_bytes() == (json_text(want) + "\n").encode()
    assert f"compare height chi2={r_h.statistic:.6g} p={r_h.p_value:.6g}" in capsys.readouterr().out


def test_compare_alpha_one_always_fails(capsys):
    code = run("compare", "--seed", "1", "-W", "6", "-M", "3",
               "--replicas", "40", "--alpha", "0.999999")
    assert code == 2


def test_render_sampled_and_from_snapshot(capsys):
    assert run("fpp", "--seed", "9", "-W", "8", "-M", "6", "--out", "f.json") == 0
    assert run("render", "--in", "f.json", "--out", "a.svg") == 0
    assert run("render", "--seed", "9", "-W", "8", "-M", "6",
               "--out", "b.svg") == 0
    a = Path("a.svg").read_text()
    b = Path("b.svg").read_text()
    assert a == b  # snapshot round-trip does not change the drawing
    ET.fromstring(a)


def test_render_highlight_none_and_bad_root(capsys):
    assert run("render", "-W", "6", "-M", "4", "--highlight-root", "none",
               "--out", "n.svg") == 0
    assert "#d81b2a" not in Path("n.svg").read_text()
    assert run("render", "-W", "6", "-M", "4", "--highlight-root", "3",
               "--out", "x.svg") == 1
    assert run("render", "-W", "6", "-M", "4", "--highlight-root", "q",
               "--out", "x.svg") == 1


def test_byte_determinism_across_reruns(capsys):
    for name in ("r1", "r2"):
        assert run("fpp", "--seed", "7", "-W", "8", "-M", "6",
                   "--out", f"{name}.json") == 0
    assert Path("r1.json").read_bytes() == Path("r2.json").read_bytes()
    for name in ("s1", "s2"):
        assert run("sidla", "--seed", "7", "-W", "6", "-M", "4",
                   "--out", f"{name}.json") == 0
    assert (Path("s1_s7.json").read_bytes() == Path("s2_s7.json").read_bytes())


def test_jobs_parallel_matches_serial(capsys):
    assert run("fpp", "--seed", "11", "-W", "6", "-M", "4", "--replicas", "3",
               "--jobs", "2", "--out", "par.json") == 0
    assert run("fpp", "--seed", "11", "-W", "6", "-M", "4", "--replicas", "3",
               "--jobs", "1", "--out", "ser.json") == 0
    for s in (11, 12, 13):
        assert (Path(f"par_s{s}.json").read_bytes()
                == Path(f"ser_s{s}.json").read_bytes())


def loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter that imports the CLI has loaded module."""
    src = str(Path(sidlalab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, sidlalab.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_stats_out():
    """scipy.stats costs most of a cold start; a fresh interpreter that
    imports the CLI must not load it."""
    assert not loaded_by_cli_import("scipy.stats")


def test_cli_import_leaves_the_process_pool_out():
    """The process pool pulls in multiprocessing; only a run with more
    than one worker loads it."""
    assert not loaded_by_cli_import("concurrent.futures.process")
