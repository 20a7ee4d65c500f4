import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sidlalab
from sidlalab import cli, coupling, fpp
from sidlalab.cli import EXIT_CONFIG, EXIT_FAULT, main
from sidlalab.fileio import atomic_write_text
from sidlalab.fpp import load_snapshot


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
def test_replica_seeds_past_64_bits_are_refused(command, capsys):
    last = 2**64 - 1
    assert run(command, "--seed", str(last - 1), "--replicas", "3",
               "-W", "8", "-M", "4") == EXIT_CONFIG
    assert f"got {last - 1}..{last + 1}" in capsys.readouterr().err
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


def test_fpp_refuses_an_unrepresentable_rate(capsys):
    """2**1024, the decreasing rate at level 1024, is no double."""
    assert run("fpp", "-W", "1024", "-M", "1024", "--profile", "decreasing",
               "--out", "f.json") == EXIT_CONFIG
    assert "decreasing rate at level M=1024" in capsys.readouterr().err
    assert not Path("f.json").exists()


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
        atomic_write_text("x.txt", "text")
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
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
    doc = json.loads(Path("f.json").read_text())
    doc["vertices"][-1]["dist"] = float("inf")  # a top-level vertex
    Path("f.json").write_text(json.dumps(doc))
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


def test_cli_import_leaves_scipy_stats_out():
    """scipy.stats costs most of a cold start; a fresh interpreter that
    imports the CLI must not load it."""
    src = str(Path(sidlalab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sidlalab.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
