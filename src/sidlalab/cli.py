"""Command-line entry point.

Subcommands cover the whole pipeline: sample a geodesic forest (fpp), run
the particle system (sidla), construct and replay the ring coupling
(couple), check the exact shell identity (shells), collect height and
flank statistics (stats), compare the two pictures distributionally
(compare), and draw forests (render).

Every command is a pure function of its flags: seeds are explicit,
default output names embed them, files are written atomically, and
repeated invocations produce byte-identical artifacts.  Exit codes: 0
success, 1 configuration error (any ConfigError, an exhausted ring budget
included), 2 verification failure, 3 internal fault (any other exception).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

import numpy as np

from . import analysis, coupling, fpp, render, sidla
from .errors import ConfigError
from .fileio import atomic_write_text, check_destination, json_text
from .hashing import check_seeds
from .lattice import Window

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_FAULT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ConfigError(message)


def _add_common(sp: argparse.ArgumentParser, width: int = 16, height: int = 8) -> None:
    sp.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    sp.add_argument("--width", "-W", type=int, default=width,
                    help=f"boundary sites per period (default {width})")
    sp.add_argument("--height", "-M", type=int, default=height,
                    help=f"height cap (default {height})")


def _add_replicas(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--replicas", type=int, default=1,
                    help="independent runs with consecutive seeds (default 1)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for replicas (default 1)")


def _add_profile(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--profile", choices=[p.value for p in fpp.WeightProfile],
                    default="stretch", help="edge-rate profile (default stretch)")


def _check_picture(args: argparse.Namespace) -> None:
    # the particle drivers run the stretch rates only, and --method (None
    # unless given) picks one of them, so it means nothing for fpp
    if args.picture == "sidla" and args.profile != "stretch":
        raise ConfigError(f"the sidla picture runs only the stretch profile, "
                          f"got --profile {args.profile}")
    if args.picture == "fpp" and args.method is not None:
        raise ConfigError(f"--method picks a particle driver; the fpp picture "
                          f"takes none, got --method {args.method}")


def _seeds(args: argparse.Namespace) -> range:
    return range(args.seed, args.seed + args.replicas)


def _replicas(args: argparse.Namespace, outputs, task, *fields) -> list:
    """task((seed, *fields)) for each seed of the command, in seed order.
    Everything the replica commands share is refused first, before any
    replica runs: --replicas or --jobs below 1, a seed outside 64 bits, and
    an output path that cannot be written or that names one file with
    another output.  outputs may be lazy: it is read after the seed check."""
    if args.replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {args.replicas}")
    if args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    check_seeds(args.seed, args.seed + args.replicas - 1)
    seen = {}
    for path in outputs:
        check_destination(path)
        if (key := os.path.realpath(path)) in seen:
            raise ConfigError(f"cannot write {seen[key]} and {path}: they name one file")
        seen[key] = path
    tasks = [(seed, *fields) for seed in _seeds(args)]
    # a fork pool starts all its workers up front, so never ask for more
    # than there are tasks or CPUs
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [task(t) for t in tasks]
    # imported here, so that a serial run does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, tasks))


def _out_path(base: str | None, stem: str, seed: int, ext: str, multi: bool) -> str:
    if base is None:
        return f"{stem}_s{seed}{ext}"
    if not multi:
        return base
    root = base[: -len(ext)] if base.endswith(ext) else base
    return f"{root}_s{seed}{ext}"


# ---------------------------------------------------------------------------
# fpp


def _fpp_task(task):
    seed, W, M, profile_value = task
    forest = _picture_run("fpp", seed, W, M, profile_value, None)
    return seed, fpp.snapshot_text(forest), float(forest.values.max())


def cmd_fpp(args: argparse.Namespace) -> int:
    win = Window(args.width, args.height)
    stem = f"fpp_w{win.W}_m{win.M}_{args.profile}"
    def path_of(seed):
        return _out_path(args.out, stem, seed, ".json", args.replicas > 1)
    for seed, text, max_dist in _replicas(args, map(path_of, _seeds(args)), _fpp_task,
                                          win.W, win.M, args.profile):
        path = path_of(seed)
        atomic_write_text(path, text)
        print(f"fpp seed={seed} window={win.W}x{win.M} profile={args.profile} "
              f"interior={win.W * win.M} maxdist={format(max_dist, '.17g')} "
              f"wrote={path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sidla


def _sidla_task(task):
    seed, W, M, method = task
    state = sidla.run_until_covered(Window(W, M), seed, method=method)
    _, censored = analysis.root_heights(state.forest)
    return (seed, fpp.snapshot_text(state.forest), sidla.events_csv_text(state),
            state.method, state.n_rings, state.clock, int(np.count_nonzero(censored)))


def cmd_sidla(args: argparse.Namespace) -> int:
    win = Window(args.width, args.height)
    stem = f"sidla_w{win.W}_m{win.M}"
    def paths_of(seed):
        snap_path = _out_path(args.out, stem, seed, ".json", True)
        return snap_path, snap_path[: -len(".json")] + "_events.csv"
    outputs = (path for seed in _seeds(args) for path in paths_of(seed))
    for seed, snap, events, method, n_rings, clock, censored in _replicas(
            args, outputs, _sidla_task, win.W, win.M, args.method):
        snap_path, events_path = paths_of(seed)
        atomic_write_text(snap_path, snap)
        atomic_write_text(events_path, events)
        print(f"sidla seed={seed} window={win.W}x{win.M} method={method} "
              f"rings={n_rings} clock={format(clock, '.17g')} "
              f"censored={censored} wrote={snap_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# couple


def _couple_task(task):
    seed, W, M, profile_value, horizon_factor, repeats = task
    return coupling.verify_coupling(
        seed, Window(W, M),
        horizon_factor=horizon_factor,
        profile=fpp.WeightProfile(profile_value),
        repeats=repeats,
    )


def cmd_couple(args: argparse.Namespace) -> int:
    win = Window(args.width, args.height)
    if not args.horizon_factor >= 1.0:
        raise ConfigError(
            f"horizon factor must be >= 1 (horizon below the coverage time "
            f"would censor rings), got {args.horizon_factor}"
        )
    stem = f"couple_w{win.W}_m{win.M}"
    report_path = args.out or f"{stem}_s{args.seed}.json"
    gaps_path = args.gaps_out or f"{stem}_s{args.seed}_gaps.csv"
    reports = _replicas(args, (report_path, gaps_path), _couple_task, win.W, win.M,
                        args.profile, args.horizon_factor, args.repeats)
    modes = Counter(r.repeats for r in reports)
    if len(modes) > 1:
        raise ConfigError(f"--repeats {args.repeats} split the replicas by repeat streams "
                          f"{dict(sorted(modes.items()))}, whose gaps cannot be pooled; "
                          f"pass --repeats full or --repeats base")

    all_equal = all(r.forest_equal for r in reports)
    sites = np.concatenate([r.gap_sites for r in reports])
    gaps = np.concatenate([r.gap_sample for r in reports])
    censored = sum(r.censored_count for r in reports)
    if len(gaps) >= 10:
        zeros = int(np.count_nonzero(gaps == 0.0))
        if zeros:
            raise ConfigError(
                f"{zeros} of {len(gaps)} ring gaps are exact zeros: float ties "
                f"between ring times in the {args.profile} profile at M={win.M}; "
                f"the exponential gap test needs positive gaps"
            )
        ks = analysis.ks_test_exp1(gaps)
        ks_stat, ks_p = ks.statistic, ks.p_value
    else:
        ks_stat, ks_p = float("nan"), float("nan")

    for r in reports:
        print(f"couple seed={r.seed} forest_equal={str(r.forest_equal).lower()} "
              f"rings={r.n_rings} gaps={len(r.gap_sample)} censored={r.censored_count}")

    report = {"forest_equal": all_equal, "n_gaps": len(gaps), "ks_stat": ks_stat,
              "ks_p": ks_p, "censored_count": censored}
    atomic_write_text(report_path, (json_text(report) + "\n").encode())
    atomic_write_text(gaps_path, coupling.gaps_csv_text(sites, gaps))
    print(f"couple total replicas={args.replicas} "
          f"forest_equal={str(all_equal).lower()} n_gaps={len(gaps)} "
          f"ks_stat={json_text(ks_stat)} "
          f"ks_p={json_text(ks_p)} censored={censored} "
          f"wrote={report_path}")
    return EXIT_OK if all_equal else EXIT_VERIFY


# ---------------------------------------------------------------------------
# shells


def cmd_shells(args: argparse.Namespace) -> int:
    k = args.max_edges
    count = 0
    for tree in analysis.enumerate_monotone_trees(k):
        if not analysis.shell_identity_check(tree):
            # the sum as a reduced fraction, n or n/d
            num, den = analysis.shell_weight(tree)
            g = math.gcd(num, den)
            total = f"{num // g}" if g == den else f"{num // g}/{den // g}"
            edges = ";".join(sorted(f"{x},{y},{'LR'[d]}" for y, x, d in tree.edges))
            print(f"LEMMA22 FAIL k={k} edges=[{edges}] sum={total}")
            return EXIT_VERIFY
        count += 1
    print(f"LEMMA22 PASS k={k} trees={count}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats


def _picture_run(picture: str, seed: int, W: int, M: int, profile_value: str,
                 method: str, up_to: int | None = None, root: int | None = None) -> fpp.Forest:
    """One picture's forest, final on levels 0..up_to (default M, the whole
    window) of root's tree (default every tree).  The fpp DP runs on the
    window cut at up_to: weights are keyed by edge address and a level's
    rate does not depend on M, so that forest is rows 0..up_to of the whole
    window's.  A particle run stops once no free edge leads from root's
    tree into levels 1..up_to (``sidla.run_until_covered``)."""
    if picture == "fpp":
        win = Window(W, M if up_to is None else up_to)
        return fpp.build_forest(fpp.WeightField(seed, fpp.WeightProfile(profile_value), win))
    return sidla.run_until_covered(Window(W, M), seed, method=method, up_to=up_to,
                                   root=root).forest


def _stats_task(task):
    seed, picture, W, M, profile_value, method, slim_d, flank_levels = task
    forest = _picture_run(picture, seed, W, M, profile_value, method)
    sizes = fpp.slice_sizes(forest)
    heights, censored = analysis.root_heights(forest, sizes)
    slim_fracs = analysis.slim_fractions(forest, slim_d, sizes)
    flank_samples = {
        n: analysis.flank_left_distances(forest, n) for n in flank_levels
    }
    return heights, censored, slim_fracs, flank_samples


def cmd_stats(args: argparse.Namespace) -> int:
    win = Window(args.width, args.height)
    _check_picture(args)
    levels = _parse_levels(args.levels, win.M) if args.levels else \
        _default_levels(win.M)
    flank_levels = _parse_levels(args.flank_levels, win.M) \
        if args.flank_levels else []
    try:
        kappas = [float(k) for k in args.kappa.split(",")] if args.kappa else [2.0, 4.0]
    except ValueError:
        raise ConfigError(f"kappa must be comma-separated numbers, got {args.kappa!r}") from None
    for kappa in kappas:
        if not kappa > 1.0:
            raise ConfigError(f"kappa must exceed 1, got {kappa:g}")
    if not args.slim_d > 0:
        raise ConfigError(f"slim threshold must be positive, got {args.slim_d}")

    out = args.out or f"stats_{args.picture}_w{win.W}_m{win.M}_s{args.seed}.csv"
    results = _replicas(args, (out,), _stats_task, args.picture, win.W, win.M, args.profile,
                        args.method or "auto", args.slim_d, tuple(flank_levels))

    all_heights = np.concatenate([r[0] for r in results])
    all_censored = np.concatenate([r[1] for r in results])
    slim_fracs = np.concatenate([r[2] for r in results])
    survival = analysis.tail_height_estimate(all_heights, levels)

    lines = ["level,n,survival,ci_low,ci_high"]
    for n, *row in zip(levels, *(a.tolist() for a in survival)):
        lines.append(f"{n},{all_heights.size}," + ",".join(format(v, ".17g") for v in row))
    atomic_write_text(out, ("\n".join(lines) + "\n").encode())

    cens_frac = float(all_censored.mean())
    print(f"stats picture={args.picture} replicas={args.replicas} "
          f"roots={len(all_heights)} censored_fraction={cens_frac:.6g} "
          f"beta_hat={cens_frac:.6g} "
          f"mean_trunc_height={float(all_heights.mean()):.6g} wrote={out}")
    if slim_fracs.size:
        print(f"stats slim D={args.slim_d:g} trees={len(slim_fracs)} "
              f"mean_slim_fraction={float(np.mean(slim_fracs)):.6g}")
    for n in flank_levels:
        samples = np.concatenate([r[3][n] for r in results])
        for kappa in kappas:
            try:
                rep = analysis.flank_bound_test(samples, n, kappa)
            except ValueError as exc:
                print(f"flank n={n} kappa={kappa:g} skipped ({exc})")
                continue
            print(rep.line())
    return EXIT_OK


def _default_levels(M: int) -> list[int]:
    levels = [1 << k for k in range(M.bit_length())]  # the powers of 2 up to M
    return levels if levels[-1] == M else levels + [M]


def _parse_levels(text: str, M: int) -> list[int]:
    try:
        levels = sorted({int(t) for t in text.split(",")})
    except ValueError:
        raise ConfigError(f"levels must be comma-separated integers, got {text!r}")
    if any(not 1 <= n <= M for n in levels):
        raise ConfigError(f"levels must lie in 1..{M}, got {levels}")
    return levels


# ---------------------------------------------------------------------------
# compare


def _compare_task(task):
    # Both statistics read only root 0's tree on levels 0..min(height_clip, M)
    seed, picture, W, M, profile_value, method, height_clip = task
    forest = _picture_run(picture, seed, W, M, profile_value, method,
                          up_to=min(height_clip, M), root=0)
    t1 = analysis.level_profile(forest, 0, 1)
    heights, _ = analysis.root_heights(forest)
    return t1, min(int(heights[0]), height_clip)


def cmd_compare(args: argparse.Namespace) -> int:
    win = Window(args.width, args.height)
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0,1), got {args.alpha}")
    clip = args.height_clip
    if clip < 1:
        raise ConfigError(f"height clip must be >= 1 (a lower clip leaves one height "
                          f"bin and a vacuous test), got {clip}")
    # the cap rule both pictures share (WeightField's), checked before any
    # replica runs, as the fpp DP runs below the cap; _replicas checks the seeds
    fpp.WeightField(0, fpp.WeightProfile.STRETCH, win)
    outputs = [args.out] if args.out else []
    fpp_res, sidla_res = [_replicas(args, outputs, _compare_task, picture, win.W, win.M,
                                    "stretch", args.method, clip)
                          for picture in ("fpp", "sidla")]

    t1_a = analysis.histogram(r[0] for r in fpp_res)
    t1_b = analysis.histogram(r[0] for r in sidla_res)
    h_a = analysis.histogram(r[1] for r in fpp_res)
    h_b = analysis.histogram(r[1] for r in sidla_res)
    r_t1 = analysis.chi_square_compare(t1_a, t1_b)
    r_h = analysis.chi_square_compare(h_a, h_b)
    print(f"compare slice1 chi2={r_t1.statistic:.6g} p={r_t1.p_value:.6g} "
          f"bins={r_t1.n_bins}")
    print(f"compare height chi2={r_h.statistic:.6g} p={r_h.p_value:.6g} "
          f"bins={r_h.n_bins}")
    if args.out:
        report = {"replicas": args.replicas, "alpha": args.alpha,
                  "slice1": {"statistic": r_t1.statistic, "p_value": r_t1.p_value},
                  "height": {"statistic": r_h.statistic, "p_value": r_h.p_value}}
        atomic_write_text(args.out, (json_text(report) + "\n").encode())
        print(f"compare wrote={args.out}")
    passed = r_t1.p_value > args.alpha and r_h.p_value > args.alpha
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# render


# render's sampling options as (flag, default).  The parser defaults them
# to None, so that one given next to --in can be told apart and refused.
_RENDER_SAMPLING = {
    "seed": ("--seed", 1), "width": ("-W/--width", 16), "height": ("-M/--height", 8),
    "picture": ("--picture", "fpp"), "profile": ("--profile", "stretch"),
    "method": ("--method", None),
}


def cmd_render(args: argparse.Namespace) -> int:
    given = [flag for dest, (flag, _) in _RENDER_SAMPLING.items()
             if getattr(args, dest) is not None]
    if args.input and given:
        raise ConfigError(f"render --in draws the snapshot's own window and "
                          f"seed; it takes no {', '.join(given)}")
    if args.highlight_root.lower() == "none":
        highlight = None
    else:
        try:
            highlight = int(args.highlight_root)
        except ValueError:
            raise ConfigError(
                f"highlight root must be an even integer or 'none', "
                f"got {args.highlight_root!r}"
            )
        if highlight % 2 != 0:
            raise ConfigError(f"highlight root must be even, got {highlight}")
    options = render.RenderOptions(
        highlight_root=highlight, scale=args.scale, max_level=args.max_level
    )
    if args.out:  # refused before any sampling or loading
        check_destination(args.out)
        if args.input and os.path.realpath(args.out) == os.path.realpath(args.input):
            raise ConfigError(f"cannot write {args.out} over the snapshot {args.input} it draws")
    if args.input:
        forest = fpp.load_snapshot(args.input)
    else:
        for dest, (_, default) in _RENDER_SAMPLING.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        _check_picture(args)
        check_seeds(args.seed, args.seed)
        win = Window(args.width, args.height)
        render.coordinate_texts(win.W, win.M, options)  # refused before sampling
        forest = _picture_run(args.picture, args.seed, win.W, win.M,
                              args.profile, args.method or "auto")
    win, seed = forest.window, forest.seed
    svg = render.render_svg(forest, options)
    out = args.out or f"render_w{win.W}_m{win.M}_s{seed}.svg"
    atomic_write_text(out, svg)
    print(f"render seed={seed} window={win.W}x{win.M} bytes={len(svg)} "
          f"wrote={out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="sidlalab",
        description="Stretched internal DLA and its passage-time twin on the "
                    "half-plane lattice: simulation, coupling verification, "
                    "exact checks, statistics and rendering.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("fpp", help="sample a geodesic forest snapshot")
    _add_common(sp)
    _add_replicas(sp)
    _add_profile(sp)
    sp.add_argument("--out", default=None, help="output JSON path")
    sp.set_defaults(func=cmd_fpp)

    sp = sub.add_parser("sidla", help="run the particle system to coverage")
    _add_common(sp)
    _add_replicas(sp)
    sp.add_argument("--method", choices=["auto", "rings", "jumps"],
                    default="auto", help="driver (default auto)")
    sp.add_argument("--out", default=None, help="output prefix or JSON path")
    sp.set_defaults(func=cmd_sidla)

    sp = sub.add_parser("couple", help="verify the ring coupling against the "
                                       "forest")
    _add_common(sp)
    _add_replicas(sp)
    _add_profile(sp)
    sp.add_argument("--horizon-factor", type=float, default=1.5,
                    help="horizon as multiple of the coverage time "
                         "(default 1.5)")
    sp.add_argument("--repeats", default="auto", choices=["auto", *coupling.REPEAT_MODES],
                    help="boundary repeat streams (default auto)")
    sp.add_argument("--out", default=None, help="report JSON path")
    sp.add_argument("--gaps-out", default=None, help="gap CSV path")
    sp.set_defaults(func=cmd_couple)

    sp = sub.add_parser("shells", help="exact shell identity over enumerated "
                                       "trees")
    sp.add_argument("--max-edges", type=int, default=8,
                    help="enumerate trees up to this many edges (default 8)")
    sp.set_defaults(func=cmd_shells)

    sp = sub.add_parser("stats", help="height, slimness and flank statistics")
    _add_common(sp)
    _add_replicas(sp)
    _add_profile(sp)
    sp.add_argument("--picture", choices=["fpp", "sidla"], default="fpp",
                    help="which sampler to draw from (default fpp)")
    sp.add_argument("--method", choices=["auto", "rings", "jumps"],
                    default=None, help="sidla driver (default auto)")
    sp.add_argument("--levels", default=None,
                    help="comma-separated survival levels (default powers "
                         "of 2)")
    sp.add_argument("--slim-d", type=float, default=4.0,
                    help="slim width threshold D (default 4)")
    sp.add_argument("--flank-levels", default=None,
                    help="comma-separated levels for flank bound lines")
    sp.add_argument("--kappa", default=None,
                    help="comma-separated kappa values (default 2,4)")
    sp.add_argument("--out", default=None, help="survival CSV path")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("compare", help="chi-square law comparison of the two "
                                        "pictures")
    _add_common(sp, width=64, height=32)
    _add_replicas(sp)
    sp.add_argument("--method", choices=["auto", "rings", "jumps"],
                    default="jumps", help="sidla driver (default jumps)")
    sp.add_argument("--alpha", type=float, default=0.01,
                    help="rejection threshold (default 0.01)")
    sp.add_argument("--height-clip", type=int, default=16,
                    help="clip heights at this level (default 16)")
    sp.add_argument("--out", default=None, help="optional report JSON path")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("render", help="draw a forest as SVG")
    _add_common(sp)
    _add_profile(sp)
    sp.add_argument("--picture", choices=["fpp", "sidla"],
                    help="sampler when no input file is given (default fpp)")
    sp.add_argument("--method", choices=["auto", "rings", "jumps"],
                    help="sidla driver (default auto)")
    sp.add_argument("--in", dest="input", default=None,
                    help="render an existing snapshot JSON instead of "
                         "sampling")
    sp.add_argument("--highlight-root", default="0",
                    help="boundary x to highlight, or 'none' (default 0)")
    sp.add_argument("--scale", type=float, default=12.0,
                    help="pixels per lattice step (default 12)")
    sp.add_argument("--max-level", type=int, default=None,
                    help="clip drawing above this level")
    sp.add_argument("--out", default=None, help="output SVG path")
    sp.set_defaults(func=cmd_render, **dict.fromkeys(_RENDER_SAMPLING))

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
