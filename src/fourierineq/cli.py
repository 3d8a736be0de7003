"""Command-line front end.

Subcommands: criteria, hardy, norms, estimate, verify, sweep.  Reports are
JSON with explicit finiteness certificates (no bare "inf" leaks into the
numeric fields).  Exit codes: 0 success, 2 input/precondition error (an
input the exact layer does not represent included), 1 internal error.

Exponents are accepted as integers, decimals, fractions like ``4/3``, or
``inf``, and are kept exact through regime classification.

Every check of the textual input (weights, exponents, dimensions, --N,
--L, --suite) runs in stdlib-only code; only then does a subcommand import
the modules it computes with, so malformed input exits 2 before numpy
loads.  The compute modules are used by module name (``criteria.evaluate``),
so a test can patch them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from fractions import Fraction

from .exponents import ExponentConfig, is_inf, parse_exp
from .extreal import ExtReal, json_float
from .weights import NONDECREASING, NONINCREASING, WeightSpec, parse_weight


class InputError(Exception):
    """A violated precondition or malformed input (exit code 2)."""


@contextlib.contextmanager
def _malformed():
    """A ValueError inside, or an OSError reading an input file, is
    malformed input."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from exc


def _weight(text: str, direction: str, d: int | None = None) -> WeightSpec:
    with _malformed():
        return parse_weight(text, direction, d)


def _problem(args) -> tuple[WeightSpec, WeightSpec, int]:
    """u, v and the one dimension d of a subcommand: --d, when given, is
    the dimension of every weight without `@d=`, and d; without it d is
    u's.  Weights of another dimension are malformed input."""
    u = _weight(args.u, NONINCREASING, args.d)
    v = _weight(args.v, NONDECREASING, args.d)
    d = u.d if args.d is None else args.d
    if not u.d == v.d == d:
        raise InputError(f"u, v and --d must share one dimension, got "
                         f"d = {u.d}, {v.d} and {d}")
    return u, v, d


def _config(args, d: int) -> ExponentConfig:
    with _malformed():
        return ExponentConfig(parse_exp(args.p), parse_exp(args.q), d)


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_plot(outdir: str, name: str, columns: list[str],
                rows: list) -> None:
    """Write one CSV series, outdir/name.csv, for external plotting."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{name}.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_criteria(args) -> int:
    u, v, d = _problem(args)
    cfg = _config(args, d)
    from . import criteria, pieces
    report = criteria.evaluate(u, v, cfg).to_json()
    # xi(t)/U(t) profile when the correction weight exists (q < 2) and U
    # and the tail in xi are finite
    if args.plot_dir and not is_inf(cfg.q) and cfg.q < 2:
        import numpy as np
        try:
            U = criteria.U_func(u, cfg)
            xi = criteria.xi_func(u, cfg)
        except pieces.Divergence:
            pass
        else:
            ts = np.geomspace(1e-4, 1e4, 200)
            rows = np.column_stack([ts, xi.at(ts) / U.at(ts)]).tolist()
            _write_plot(args.plot_dir, "xi_over_U", ["t", "xi_over_U"], rows)
    _write_report(report, args.out)
    return 0


def cmd_hardy(args) -> int:
    with _malformed():
        pp = parse_exp(args.p)
        qq = parse_exp(args.q)
        if args.kind == "head_sum":
            useq = [float(x) for x in args.u.split(",")]
            vseq = [float(x) for x in args.v.split(",")]
        else:
            uw = _weight(args.u, NONINCREASING)
            if args.kind != "reverse":
                vw = _weight(args.v, NONDECREASING)
    import numpy as np
    from . import hardy, pieces
    with _malformed():
        if args.kind == "head_sum":
            prob = hardy.HardyProblem(hardy.HEAD_SUM, pp, qq,
                                      u_seq=np.array(useq),
                                      v_seq=np.array(vseq))
        elif args.kind == "reverse":
            nu = pieces.StepFunction.power(1.0, -1)  # nu(t) = t
            prob = hardy.HardyProblem(hardy.REVERSE, pp, qq,
                                      w=uw.profile(), nu=nu)
        else:
            kind = (hardy.HEAD_INTEGRAL if args.kind == "head_integral"
                    else hardy.TAIL_INTEGRAL)
            prob = hardy.HardyProblem(kind, pp, qq, u_w=uw.profile(),
                                      v_w=vw.profile())
    K = hardy.hardy_K(prob)
    report = {"kind": args.kind, "p": args.p, "q": args.q,
              "K": K.to_json()}
    if args.oracle:
        rng = np.random.default_rng(args.seed)
        report["oracle_lower_bound"] = json_float(
            hardy.brute_force_K(prob, rng))
    _write_report(report, args.out)
    return 0


# the input flags each kind of norm requires
NORM_INPUTS = {"optimalY": ("f", "u"), "morrey": ("f", "shape"),
               "expL": ("f",), "theta": ("seq",), "gamma": ("seq",),
               "bochkarev": ("seq",), "blocks": ("seq",)}


def cmd_norms(args) -> int:
    kind = args.kind
    for flag in NORM_INPUTS[kind]:
        if getattr(args, flag) is None:
            raise InputError(f"--{flag} is required for kind {kind}")
    sequence = NORM_INPUTS[kind] == ("seq",)
    if not sequence and args.d < 1:
        raise InputError(f"--d must be a positive integer, got {args.d}")
    with _malformed():
        e = parse_exp(args.exponent) if kind != "expL" else None
    if kind == "optimalY":
        u = _weight(args.u, NONINCREASING, args.d)
    elif kind == "morrey":
        shape = _weight(args.shape, NONINCREASING, args.d)
    from . import norms, pieces
    with _malformed():
        if sequence:
            seq = norms.SequenceData.from_csv(args.seq)
            if kind == "theta":
                value = norms.theta_norm(seq, e).to_json()
            elif kind == "gamma":
                value = norms.gamma_norm(seq, e).to_json()
            elif kind == "bochkarev":
                value = ExtReal.finite(norms.bochkarev_norm(seq, e)).to_json()
            else:
                value = ExtReal.finite(
                    norms.dyadic_block_norms(seq, e)).to_json()
        else:
            f = pieces.StepFunction.from_csv(args.f)
            if kind == "optimalY":
                value = norms.optimal_Y_norm(f, u, e).to_json()
            elif kind == "morrey":
                value = norms.morrey_optimal_norm(f, e, shape.profile(),
                                                  args.d).to_json()
            else:  # expL
                left, right = norms.expL_pair(f, args.d)
                value = {"expL": left.to_json(),
                         "head_average": right.to_json()}
    _write_report({"kind": kind, "value": value}, args.out)
    return 0


def cmd_estimate(args) -> int:
    # a bracket at N and its random witness at N/2 both need >= 2 samples
    if args.N < 4 or args.N & (args.N - 1):
        raise InputError(f"--N must be a power of two, at least 4, got "
                         f"{args.N}")
    if not 0.0 < args.L < math.inf:
        raise InputError(f"--L must be positive and finite, got {args.L}")
    u, v, d = _problem(args)
    cfg = _config(args, d)
    import numpy as np
    from . import extremal
    rng = np.random.default_rng(args.seed)
    br = extremal.bracket_constant(u, v, cfg, rng, N=args.N, L=args.L,
                                   n_random=args.budget)
    report = br.to_json()
    if br.lower is None:  # no one-dimensional witness is a bound here
        _write_report(report, args.out)
        return 0
    # resolution-sensitivity delta: best random-signal ratio at N vs N/2
    half = extremal.best_random_ratio(
        u, v, cfg, np.random.default_rng(args.seed), args.N // 2, args.L,
        max(2, args.budget // 2))
    report["half_resolution_lower"] = json_float(half)
    if args.plot_dir:
        _write_plot(args.plot_dir, "ratio_vs_resolution", ["N", "best_ratio"],
                    [[args.N // 2, half], [args.N, br.lower]])
    _write_report(report, args.out)
    return 0


def cmd_sweep(args) -> int:
    u, v, d = _problem(args)
    with _malformed():
        ps = [(t.strip(), parse_exp(t)) for t in args.p_list.split(",")]
        qs = [(t.strip(), parse_exp(t)) for t in args.q_list.split(",")]
    cells = []
    for ptxt, p in ps:
        for qtxt, q in qs:
            try:
                cells.append((ptxt, qtxt, ExponentConfig(p, q, d)))
            except ValueError:
                continue
    from . import criteria
    rows = []
    for ptxt, qtxt, cfg in cells:
        rep = criteria.evaluate(u, v, cfg)
        g = rep.governing
        rows.append([ptxt, qtxt, rep.regime,
                     g.state, "" if not g.is_finite else g.value,
                     rep.holds])
    out = args.out or "sweep.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "q", "regime", "state", "constant", "holds"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_verify(args) -> int:
    """Quick built-in verification sweeps (the full suite lives in tests/)."""
    failures: list[str] = []
    suites = {"plancherel", "fourier", "duality"}
    chosen = suites if args.suite == "all" else {args.suite}
    if not chosen <= suites:
        raise InputError(f"unknown suite {args.suite!r}; "
                         f"choose from {sorted(suites)} or 'all'")
    if "plancherel" in chosen:
        from . import criteria
        one_u = WeightSpec.one(NONINCREASING)
        one_v = WeightSpec.one(NONDECREASING)
        rep = criteria.evaluate(one_u, one_v, ExponentConfig(2, 2))
        ok = rep.governing.is_finite and abs(rep.governing.value - 1) < 1e-9
        print(f"plancherel: C = {rep.governing.value} "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append("plancherel")
    if "fourier" in chosen:
        import numpy as np
        from . import extremal
        rng = np.random.default_rng(args.seed)
        bad = 0
        for _ in range(20):
            f = extremal.random_band_limited(rng)
            F = extremal.dft(f)
            if (extremal.weighted_norm(F, math.inf)
                    > extremal.weighted_norm(f, 1) + 1e-9):
                bad += 1
            if abs(extremal.weighted_norm(F, 2)
                   / extremal.weighted_norm(f, 2) - 1) > 1e-6:
                bad += 1
        print(f"fourier: {bad} violations on 20 signals")
        if bad:
            failures.append("fourier")
    if "duality" in chosen:
        from . import criteria
        bad = 0
        for (p, q) in [(2, 2), (Fraction(4, 3), 2), (2, 4), (3, 2),
                       (4, 3)]:
            cfg = ExponentConfig(p, q)
            u = WeightSpec.power(Fraction(1, 8))
            v = WeightSpec.power(Fraction(1, 8), NONDECREASING)
            du, dv, dcfg = criteria.dual_config(u, v, cfg)
            if (criteria.evaluate(u, v, cfg).governing.is_finite
                    != criteria.evaluate(du, dv, dcfg).governing.is_finite):
                bad += 1
        print(f"duality: {bad} finiteness mismatches on 5 configs")
        if bad:
            failures.append("duality")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


D_HELP = ("ambient dimension: the d of every weight without @d= "
          "(default: u's d)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fourierineq",
        description="Weighted Fourier inequalities: criteria, Hardy "
                    "constants, optimal norms, and empirical brackets.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, weights=True, exps=True):
        if weights:
            p.add_argument("--u", required=True,
                           help="non-increasing weight DSL, e.g. pow(1/4)")
            p.add_argument("--v", required=True,
                           help="non-decreasing weight DSL")
        if exps:
            p.add_argument("--p", required=True)
            p.add_argument("--q", required=True)
        p.add_argument("--out", default=None, help="write JSON here")

    pc = sub.add_parser("criteria", help="classify and evaluate a config")
    add_common(pc)
    pc.add_argument("--d", type=int, default=None, help=D_HELP)
    pc.add_argument("--plot-dir", default=None)
    pc.set_defaults(fn=cmd_criteria)

    ph = sub.add_parser("hardy", help="Hardy characterization constants")
    ph.add_argument("--kind", required=True,
                    choices=["head_sum", "head_integral", "tail_integral",
                             "reverse"])
    ph.add_argument("--u", required=True,
                    help="weight DSL (or comma-separated values for "
                         "head_sum; the w weight for reverse)")
    ph.add_argument("--v", default="pow(0)",
                    help="weight DSL or comma-separated values")
    ph.add_argument("--p", required=True)
    ph.add_argument("--q", required=True)
    ph.add_argument("--oracle", action="store_true",
                    help="also run the brute-force witness search (exact "
                         "ratios of step test functions, or lower bounds of "
                         "them: a lower bound on the optimal constant)")
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--out", default=None)
    ph.set_defaults(fn=cmd_hardy)

    pn = sub.add_parser("norms", help="optimal-space and sequence norms")
    pn.add_argument("--kind", required=True,
                    choices=list(NORM_INPUTS))
    pn.add_argument("--seq", help="CSV of rows n,value (sequence kinds)")
    pn.add_argument("--f", help="step-function CSV (function kinds)")
    pn.add_argument("--u", help="weight DSL (optimalY)")
    pn.add_argument("--shape", help="shape weight DSL (morrey)")
    pn.add_argument("--exponent", default="2")
    pn.add_argument("--d", type=int, default=1)
    pn.add_argument("--out", default=None)
    pn.set_defaults(fn=cmd_norms)

    pe = sub.add_parser("estimate", help="two-sided constant bracket")
    add_common(pe)
    pe.add_argument("--d", type=int, default=None, help=D_HELP)
    pe.add_argument("--N", type=int, default=4096)
    pe.add_argument("--L", type=float, default=64.0)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--budget", type=int, default=8,
                    help="random signals per witness family")
    pe.add_argument("--plot-dir", default=None)
    pe.set_defaults(fn=cmd_estimate)

    pv = sub.add_parser("verify", help="built-in verification sweeps")
    pv.add_argument("--suite", default="all")
    pv.add_argument("--seed", type=int, default=7)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("sweep", help="criteria over an exponent grid")
    ps.add_argument("--u", required=True)
    ps.add_argument("--v", required=True)
    ps.add_argument("--p-list", required=True,
                    help="comma-separated p values")
    ps.add_argument("--q-list", required=True,
                    help="comma-separated q values")
    ps.add_argument("--d", type=int, default=None, help=D_HELP)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, NotImplementedError) as exc:
        # NotImplementedError: an input the exact layer does not represent,
        # such as a weight whose rearrangement has no closed form
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
