"""Command-line front end.

Exit codes: 0 when everything asked for succeeded, 1 when at least one check
failed, 2 for usage errors or unreadable files (argparse uses 2 as well),
3 when a size guard refused the computation.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from pathlib import Path

from . import setops, spectral, subgroups
from .errors import (BadSpec, InfeasibleSize, IoFailure, LabError, NotPrime,
                     OrderDoesNotDivide, TooLarge, UnknownCheck)
from .harness import (SetStats, build_report, check_ids, named_corpus,
                      profile_by_name, read_report, rect_decompose, run_suite,
                      stats_from_spec, subgroup_stats, sum_construction_stats,
                      summary_line, write_report)
from .harness.corpus import CORPORA

GAP_EXPONENT = 437 / 480


def _inputs_from_args(args) -> tuple[list[SetStats], str]:
    """Input sets plus a corpus label for the report."""
    if getattr(args, "corpus", None):
        return named_corpus(args.corpus), args.corpus
    inputs = []
    if getattr(args, "set", None):
        for path in args.set:
            try:
                A = setops.read_gset(path)
            except OSError as exc:
                raise IoFailure(f"cannot read set file {path}: {exc}") from exc
            inputs.append(SetStats(A, name=Path(path).name))
    if getattr(args, "family", None):
        inputs.extend(stats_from_spec(text) for text in args.family)
    if not inputs:
        raise BadSpec("no input: pass --set, --family, or --corpus")
    label = ",".join(s.name for s in inputs)
    return inputs, label


# -- subcommands ---------------------------------------------------------------


def _cmd_stats(args) -> int:
    inputs, _ = _inputs_from_args(args)
    for stats in inputs:
        print(f"{stats.name}:")
        print(f"  |A| = {stats.size}")
        for op, tag in (("+", "|A+A|"), ("-", "|A-A|"), ("*", "|AA|"), ("/", "|A/A|")):
            print(f"  {tag} = {stats.support(op)}")
        print(f"  E = {stats.energy()}")
        print(f"  E3 = {stats.energy3()}")
        print(f"  T3 = {stats.t3()}")
        print(f"  max difference multiplicity = {stats.max_r()}")
        pop = stats.pop()
        print(f"  popular differences: {pop.members.size} above {pop.delta}, "
              f"mass {pop.mass}")
        lvl = stats.dyadic()
        print(f"  busiest dyadic class: delta = {lvl.delta}, "
              f"{lvl.members.size} differences, mass {lvl.mass}")
    return 0


def _cmd_verify(args) -> int:
    inputs, label = _inputs_from_args(args)
    ids = check_ids(args.checks)
    results = run_suite(ids, inputs, options={"rect_profile": profile_by_name(args.profile)},
                        jobs=args.jobs)
    rep = build_report(results, corpus=label, deterministic=args.deterministic)
    for r in rep.results:
        print(f"{r.check_id:22s} {r.inputs:32s} {r.verdict:12s} "
              f"ratio={r.ratio:.6g}")
    print(summary_line(rep))
    if args.out:
        write_report(rep, args.out, args.format)
        print(f"report written to {args.out}")
    return 1 if rep.failed() else 0


def _cmd_subgroup(args) -> int:
    stats = subgroup_stats(args.p, args.t)
    ctx = stats.ctx
    print(f"subgroup of order {ctx.t} in F_{ctx.p}* "
          f"(generator {pow(ctx.g, ctx.cosets, ctx.p)}, {ctx.cosets} cosets)")
    did_something = False
    if args.gaps:
        rep = subgroups.gap_H(ctx)
        print(f"H = {rep.gap} (coset {rep.coset}, run starts at {rep.start})")
        print(f"H / p^(437/480) = {rep.gap / ctx.p**GAP_EXPONENT:.6g}")
        did_something = True
    if args.window:
        total, _ = subgroups.window_counts(ctx, args.window)
        print(f"N({args.window}) = {total}  (4h^2 = {4 * args.window**2})")
        did_something = True
    if args.chars:
        rep = subgroups.char_moment_report(ctx)
        print(f"t*sum|S|^2 = {ctx.t * rep.second_moment:.6f} "
              f"(target {ctx.t * (ctx.p - ctx.t)})")
        print(f"t*sum|S|^4 = {ctx.t * rep.fourth_moment:.6f} "
              f"(target {ctx.p * rep.energy - ctx.t**4})")
        print(f"strict fourth-moment bound holds: {rep.strict_bound_ok}")
        did_something = True
    if args.ks:
        rep = subgroups.ks_criterion(ctx, args.ks)
        print(f"KS value = {rep.value:.6f}, threshold t/2 = {rep.threshold}, "
              f"holds = {rep.ok}")
        did_something = True
    if args.lift:
        _, table = subgroups.mod_p2_subgroup(ctx)
        for k, (up, down) in sorted(table.items()):
            print(f"T_{k}: mod p^2 = {up}, mod p = {down}")
        did_something = True
    if not did_something:
        rep = subgroups.gap_H(ctx)
        print(f"E = {stats.energy()}, H = {rep.gap}")
    return 0


def _parse_scan_spec(text: str) -> tuple[int, int, int, int]:
    """'p in [a,b], t | p-1, t in [c,d]' (the t range is optional)."""
    import re

    pat = (r"^\s*p\s+in\s+\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*,\s*t\s*\|\s*p\s*-\s*1"
           r"(?:\s*,\s*t\s+in\s+\[\s*(\d+)\s*,\s*(\d+)\s*\])?\s*$")
    m = re.match(pat, text)
    if m is None:
        raise BadSpec(f"cannot parse scan spec {text!r}; expected "
                      f"'p in [a,b], t | p-1, t in [c,d]'")
    plo, phi = int(m.group(1)), int(m.group(2))
    tlo = int(m.group(3)) if m.group(3) else 2
    thi = int(m.group(4)) if m.group(4) else phi
    if plo > phi or tlo > thi:
        raise BadSpec("empty scan range")
    return plo, phi, tlo, thi


def _cmd_scan(args) -> int:
    plo, phi, tlo, thi = _parse_scan_spec(args.range)
    primes = [p for p in range(max(3, plo) | 1, phi + 1, 2) if subgroups.is_prime(p)]
    deadline = time.monotonic() + args.budget if args.budget else None
    out_file = None
    if args.out:
        try:
            out_file = open(args.out, "w", newline="")
        except OSError as exc:
            raise IoFailure(f"cannot open {args.out}: {exc}") from exc
    writer = None
    if out_file is not None:
        writer = csv.writer(out_file, lineterminator="\n")
        writer.writerow(["p", "t", "H", "normalized"])
    best = None
    rows = 0
    truncated = False
    try:
        for p in primes:
            if deadline is not None and time.monotonic() > deadline:
                truncated = True
                break
            for p_, t, gap in subgroups.scan_gaps(
                    [p], t_filter=lambda _p, t: tlo <= t <= thi):
                norm = gap / p_**GAP_EXPONENT
                rows += 1
                if writer is not None:
                    writer.writerow([p_, t, gap, repr(norm)])
                if best is None or norm > best[0]:
                    best = (norm, p_, t, gap)
            if out_file is not None:
                out_file.flush()  # partial results survive interruption
    finally:
        if out_file is not None:
            out_file.close()
    if best is None:
        print("scan matched no (p, t) pairs")
        return 0
    norm, p, t, gap = best
    print(f"scanned {rows} pairs"
          + (f" (budget hit before p = {phi})" if truncated else ""))
    print(f"max H / p^(437/480) = {norm:.6g} at p = {p}, t = {t} (H = {gap})")
    return 0


def _cmd_spectral(args) -> int:
    inputs, _ = _inputs_from_args(args)
    for stats in inputs:
        chain = spectral.spectral_chain(stats.A, delta=args.delta)
        print(f"{stats.name}: delta = {chain.delta}")
        print(f"  E' = {chain.eprime}, mu1 = {chain.mu1:.6f}, "
              f"lower bound E'/(n sqrt(delta)) = {chain.lower_mu:.6f}")
        print(f"  Rayleigh on R: {chain.rayleigh_R:.6f} >= "
              f"sqrt(delta)*mu1 = {math.sqrt(chain.delta) * chain.mu1:.6f}")
        print(f"  exact: E'^6 = {chain.lhs_exact} <= "
              f"n^6 E3 delta^2 Sigma = {chain.rhs_exact}")
        print(f"  chain holds: {chain.ok}")
        sweep = spectral.psd_sweep(stats.A)
        print(f"  PSD sweep: min quadratic {sweep.min_quadratic:.3g}, "
              f"max route gap {sweep.max_route_gap:.3g}, ok = {sweep.ok}")
    return 0


def _cmd_rect(args) -> int:
    inputs, _ = _inputs_from_args(args)
    profile = profile_by_name(args.profile)
    failed = False
    for stats in inputs:
        cover = rect_decompose(stats.A, profile=profile)
        print(f"{stats.name}: {cover.case} after {cover.rounds} round(s)")
        print(f"  level delta = {cover.delta}, {cover.level.size} popular "
              f"differences, point mass {cover.mass}")
        print(f"  {len(cover.rectangles)} rectangles cover {cover.rich_points} "
              f"of {cover.mass} points")
        if cover.case == "case1":
            print(f"  A' = {cover.Aprime.size} abscissae, each meeting >= "
                  f"{cover.q} ordinates of A'' = {cover.Adoubleprime.size}")
        if args.sums:
            st = sum_construction_stats(stats.A, cover=cover)
            print(f"  |A+A| = {st.s_size}, |A/A| = {st.ratio_count}, "
                  f"slice mass {st.pair_mass}, E^x-type sum {st.energy_times}")
            print(f"  sum of |Q|^3 = {st.sum_q_cubes} vs |S|^4 |P|^2 = "
                  f"{st.line_bound} per slope")
            print(f"  witnessed grid triples >= {st.triples_lower}")
        failed = failed or 2 * cover.rich_points < cover.mass
    return 1 if failed else 0


def _cmd_report(args) -> int:
    rep = read_report(args.infile, args.format)
    print(f"{rep.schema} | corpus {rep.corpus} | generated "
          f"{rep.generated or 'deterministic'}")
    print(summary_line(rep))
    for r in rep.failed():
        print(f"FAILED {r.check_id} on {r.inputs}")
    return 1 if rep.failed() else 0


# -- parser --------------------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser, *, corpus: bool = False) -> None:
    p.add_argument("--set", action="append", metavar="FILE",
                   help="read a set from FILE (one element per line)")
    p.add_argument("--family", action="append", metavar="SPEC",
                   help="generate a family, e.g. geo(q=2,n=16) or subgroup(p=7,t=3)")
    if corpus:
        p.add_argument("--corpus", choices=sorted(CORPORA),
                       help="use a named input collection")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sumprodlab",
        description="Exact verification harness for sum-product counting bounds.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print counting statistics for sets")
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("verify", help="run checks and report verdicts")
    _add_input_flags(p, corpus=True)
    p.add_argument("--checks", default="all-exact",
                   help="comma-separated check ids, or all-exact / all")
    p.add_argument("--profile", choices=("paper", "desk"), default="paper",
                   help="threshold constants for the rectangle decomposition")
    p.add_argument("--out", help="write the report here")
    p.add_argument("--format", choices=("json", "csv"),
                   help="report format (default: by file extension)")
    p.add_argument("--jobs", type=int, default=1,
                   help="process pool size (inputs are distributed)")
    p.add_argument("--deterministic", action="store_true",
                   help="zero all timings and drop the timestamp")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("subgroup", help="inspect one multiplicative subgroup")
    p.add_argument("--p", type=int, required=True, help="odd prime modulus")
    p.add_argument("--t", type=int, required=True, help="subgroup order (t | p-1)")
    p.add_argument("--gaps", action="store_true",
                   help="longest coset-free run of consecutive residues")
    p.add_argument("--window", type=int, metavar="H",
                   help="dual-route window count N(H)")
    p.add_argument("--chars", action="store_true",
                   help="exponential sum moment identities")
    p.add_argument("--ks", type=int, metavar="H",
                   help="spectral smallness criterion at window radius H")
    p.add_argument("--lift", action="store_true",
                   help="compare T_k with the mod p^2 lift")
    p.set_defaults(fn=_cmd_subgroup)

    p = sub.add_parser("scan", help="sweep coset-free runs over many primes")
    p.add_argument("range", help="e.g. 'p in [3,10000], t | p-1, t in [10,10000]'")
    p.add_argument("--budget", type=float, metavar="SECONDS",
                   help="stop after this much wall time (partial output kept)")
    p.add_argument("--out", help="write p,t,H,normalized rows here (CSV)")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("spectral", help="eigenvalue route for the energy matrices")
    _add_input_flags(p)
    p.add_argument("--delta", type=int,
                   help="truncation level (default: the largest multiplicity)")
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("rect", help="rectangle decomposition of the difference grid")
    _add_input_flags(p)
    p.add_argument("--profile", choices=("paper", "desk"), default="paper")
    p.add_argument("--sums", action="store_true",
                   help="also print the sum-construction statistics")
    p.set_defaults(fn=_cmd_rect)

    p = sub.add_parser("report", help="summarize a stored report")
    p.add_argument("infile", help="report file (JSON or CSV)")
    p.add_argument("--format", choices=("json", "csv"))
    p.set_defaults(fn=_cmd_report)

    return top


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with subgroups.table_scope():  # one command is one run: its kernels share F_p^* tables
            return args.fn(args)
    except (TooLarge, InfeasibleSize) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (IoFailure, BadSpec, UnknownCheck, NotPrime, OrderDoesNotDivide) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
