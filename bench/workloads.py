"""The benchmark's four workloads, each a fixed list of checked operations.

``build(name, seed, root)`` makes a workload's inputs from its seed; the
package only ever sees the generated inputs.  Every operation pairs a call
into fourierineq with a check of its output against ``oracle``.  An
operation that exposes a known defect carries its description in
``defect``; it stays in the list and is counted as failed until the
defect is fixed.

- ``constants``: one finite ``evaluate()`` config per regime, the ROADMAP's
  infinite regime V case, the two power-u configs that crash today, Hardy
  constants of all four kinds with their brute-force witnesses, and the
  function-side norms.  Deep nested quadrature: ``symfunc`` and
  ``criteria`` do the work.
- ``exponent-grid``: a fixed sample of 704 of the 7040 configs of the
  exact rational power-weight grid of ``scripts/pitt_grid.py`` in both
  orders of (p, q), regimes I and II (shallow ``evaluate()`` calls in
  seed-shuffled order, each repeated many times in a run).
- ``signals``: seeded band-limited signals through ``verify_joint_type``,
  and ``bracket_constant`` at N = 4096 for ind(R) against pow(gamma) at
  the corners of the test suite's (R, gamma) grid.
- ``cli``: fresh-process runs of all six subcommands and of malformed
  inputs that must exit 2.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from fourierineq import calderon, criteria, extremal, hardy, norms
from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.weights import (NONDECREASING, NONINCREASING, WeightSpec,
                                 parse_weight)

import oracle
from oracle import Verdict

# Passes are kept short, so that a run holds many of them and their median
# is steady on a shared host.
GRID_SAMPLE = 704          # evaluate() calls per exponent-grid pass
GRID_SAMPLE_SEED = 0       # fixed, so that runs of every seed time the same
                           # configs; the run's seed sets their order
JOINT_TYPE_SIGNALS = 4     # verify_joint_type calls per signals pass
# (R, gamma) of the bracket_constant calls: the corners of the suite's
# bracket grid R in {0.5, ..., 8}, gamma in {1/4, 1/2}
BRACKETS = [(R, Fraction(1, g)) for R in (0.5, 8.0) for g in (4, 2)]
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One operation: call() runs the program, check() judges its output."""
    name: str
    group: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    defect: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    cli: "CliRunner | None" = None


def build(name: str, seed: int, root: str) -> Workload:
    if name == "constants":
        return Workload(name, constants_ops(seed))
    if name == "exponent-grid":
        return Workload(name, grid_ops(seed))
    if name == "signals":
        return Workload(name, signal_ops(seed))
    if name == "cli":
        runner = CliRunner(root, seed)
        return Workload(name, cli_ops(runner), runner)
    raise ValueError(f"unknown workload {name!r}")


# -- constants ----------------------------------------------------------------

TABLE_SCALE = 2.0  # v = 2 on (0, 2), 2t beyond: a table weight growing like r


def _evaluate_op(name, u, v, p, q, check, defect="") -> Op:
    cfg = criteria.ExponentConfig(p, q)
    return Op(f"evaluate:{name}", "evaluate",
              lambda: criteria.evaluate(u, v, cfg), check, defect)


def hardy_problems() -> dict[str, hardy.HardyProblem]:
    """One fixed problem per kind, as in the unit tests."""
    cell = StepFunction.from_cells([0.0, 1.0], [1.0])
    return {
        "head_sum": hardy.HardyProblem(
            hardy.HEAD_SUM, 1.0, 0.5, u_seq=np.array([1.0, 0.5, 0.25, 0.125]),
            v_seq=np.ones(4)),
        "head_integral": hardy.HardyProblem(
            hardy.HEAD_INTEGRAL, 2.0, 2.0,
            u_w=StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                        tail=TailSpec.power(3)),
            v_w=StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                        tail=TailSpec.power(-1))),
        "tail_integral": hardy.HardyProblem(
            hardy.TAIL_INTEGRAL, 2.0, 2.0, u_w=cell,
            v_w=StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                        tail=TailSpec.power(-2))),
        "reverse": hardy.HardyProblem(hardy.REVERSE, 1.0, 0.5, w=cell,
                                      nu=StepFunction.power(1.0, -1)),
    }


def constants_ops(seed: int) -> list[Op]:
    F = Fraction
    ind1 = parse_weight("ind(1)", NONINCREASING)
    vpow = {g: parse_weight(f"pow({g})", NONDECREASING)
            for g in ("1/4", "1/2", "3/4")}
    one_u, one_v = (parse_weight("pow(0)", NONINCREASING),
                    parse_weight("pow(0)", NONDECREASING))
    upow = {g: parse_weight(f"pow({g})", NONINCREASING)
            for g in ("1/4", "3/4")}
    table = WeightSpec.from_table(
        StepFunction.from_cells([0.0, TABLE_SCALE], [TABLE_SCALE] * 2,
                                tail=TailSpec.power(-1)), NONDECREASING)

    def governing(ref, tol=oracle.CLOSED_TOL):
        return lambda rep: oracle.extreal_close(rep.governing, ref, tol)

    def diverges(rep):
        if rep.holds is not False:
            return Verdict(False, f"holds={rep.holds!r}, expected False")
        return oracle.infinite(rep.governing)

    def consistent(rep):
        return oracle.certificate(rep.governing, rep.holds)

    crash = ("qsharp_tail_finite overflows math.exp for power-law u "
             "(OverflowError on a valid config)")
    ops = [
        _evaluate_op("deg-qinf", ind1, table, 2, math.inf, governing(
            oracle.table_product_constant(TABLE_SCALE, 2, math.inf))),
        _evaluate_op("deg-p1", ind1, table, 1, 2, governing(
            oracle.table_product_constant(TABLE_SCALE, 1, 2))),
        _evaluate_op("I", upow["1/4"], one_v, F(4, 3), 2, governing(
            oracle.pitt_constant(F(4, 3), F(2), F(0), F(1, 4)))),
        _evaluate_op("I-plancherel", one_u, one_v, 2, 2, governing(1.0)),
        _evaluate_op("II", ind1, vpow["1/4"], 3, 2, governing(
            oracle.indicator_power_constant(1.0, F(1, 4), 3, 2))),
        _evaluate_op("III", ind1, vpow["1/2"], 3, 1,
                     governing(oracle.PINNED_III, oracle.PINNED_TOL)),
        _evaluate_op("IV", ind1, vpow["3/4"], math.inf, 1,
                     governing(oracle.PINNED_IV, oracle.PINNED_TOL)),
        _evaluate_op("V", ind1, vpow["1/4"], F(3, 2), F(1, 2),
                     governing(oracle.PINNED_V, oracle.PINNED_TOL)),
        _evaluate_op("V-infinite", ind1, vpow["1/2"], 2, F(1, 2), diverges),
        _evaluate_op("III-power-u", upow["3/4"], vpow["1/2"], 3, 1,
                     consistent, crash),
        _evaluate_op("IV-power-u", upow["3/4"], vpow["1/2"], math.inf, 1,
                     consistent, crash),
    ]
    for kind, prob in hardy_problems().items():
        ref = oracle.PINNED_HARDY[kind]
        ops.append(Op(f"hardy_K:{kind}", "hardy",
                      lambda prob=prob: hardy.hardy_K(prob),
                      lambda K, ref=ref: oracle.extreal_close(
                          K, ref, oracle.PINNED_TOL)))
        ops.append(Op(f"brute_force_K:{kind}", "hardy",
                      lambda prob=prob, k=len(ops): hardy.brute_force_K(
                          prob, np.random.default_rng([seed, k]),
                          n_restarts=4, n_cells=10, n_sweeps=8),
                      lambda best, ref=ref: _in_band(best / ref,
                                                     oracle.HARDY_BAND)))
    box = StepFunction.indicator(1.0)
    ops += [
        Op("optimal_Y:q=2", "norms",
           lambda: norms.optimal_Y_norm(box, WeightSpec.one(), 2),
           lambda y: oracle.extreal_close(y, math.sqrt(2.0), 1e-9)),
        Op("optimal_Y:q=1", "norms",
           lambda: norms.optimal_Y_norm(box, WeightSpec.indicator(1.0), 1),
           lambda y: oracle.extreal_close(y, oracle.PINNED_OPTIMAL_Y_Q1,
                                          oracle.PINNED_TOL)),
        Op("morrey", "norms",
           lambda: norms.morrey_optimal_norm(
               box, 2, StepFunction.power(1.0, F(1, 2))),
           lambda m: oracle.extreal_close(m, 1.0, 1e-9)),
        Op("expL_pair", "norms", lambda: norms.expL_pair(box),
           lambda pair: _worst(oracle.extreal_close(x, 1.0, oracle.EXPL_TOL)
                               for x in pair)),
    ]
    return ops


def _in_band(ratio: float, band: float) -> Verdict:
    ok = 1.0 / band <= ratio <= band
    return Verdict(ok, "" if ok else f"ratio {ratio!r} outside "
                   f"[1/{band:g}, {band:g}]")


def _worst(verdicts) -> Verdict:
    """The failing verdict if any, else the one with the largest error."""
    vs = list(verdicts)
    bad = [v for v in vs if not v.ok]
    if bad:
        return bad[0]
    return max(vs, key=lambda v: v.rel_err or 0.0)


# -- exponent grid ------------------------------------------------------------

def grid_configs() -> list[tuple[Fraction, Fraction, Fraction]]:
    """(p, q, alpha) over the pitt_grid.py axes, both orders of (p, q),
    restricted to regimes I and II."""
    ps = [1 + Fraction(k, 4) for k in range(1, 21)]
    alphas = [Fraction(j - 5, 16) for j in range(20)]
    out = []
    for p in ps:
        for q in ps:
            if criteria.classify(criteria.ExponentConfig(p, q)) in ("I", "II"):
                out += [(p, q, al) for al in alphas]
    return out


def grid_ops(seed: int) -> list[Op]:
    configs = grid_configs()
    sample = np.random.default_rng(GRID_SAMPLE_SEED).choice(
        len(configs), GRID_SAMPLE, replace=False)
    order = np.random.default_rng(seed).permutation(sample)
    return [_grid_op(*configs[i]) for i in order]


def _grid_op(p: Fraction, q: Fraction, alpha: Fraction) -> Op:
    lam = 1 / p + 1 / q + alpha - 1

    def call():
        u = (WeightSpec.one() if lam == 0
             else WeightSpec.power(lam, NONINCREASING))
        v = (WeightSpec.one(NONDECREASING) if alpha == 0
             else WeightSpec.power(alpha, NONDECREASING))
        return criteria.evaluate(u, v, criteria.ExponentConfig(p, q))

    def check(rep) -> Verdict:
        expected = oracle.pitt_holds(p, q, alpha, lam)
        if rep.holds is not expected:
            return Verdict(False, f"holds={rep.holds!r}, rule says {expected}")
        if not expected:
            return oracle.infinite(rep.governing)
        return oracle.extreal_close(
            rep.governing, oracle.pitt_constant(p, q, alpha, lam),
            oracle.CLOSED_TOL)

    return Op(f"evaluate:p={p},q={q},alpha={alpha}", "evaluate", call, check)


# -- signals ------------------------------------------------------------------

def signal_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    sigs = [extremal.random_band_limited(rng, N=4096, L=64.0)
            for _ in range(JOINT_TYPE_SIGNALS)]
    lo, hi = (1 - oracle.JOINT_TYPE_BAND) * oracle.JOINT_TYPE_PIN, \
        (1 + oracle.JOINT_TYPE_BAND) * oracle.JOINT_TYPE_PIN

    def joint_check(cert) -> Verdict:
        ok = cert.dominated and lo <= cert.bestK <= hi
        return Verdict(ok, "" if ok else f"dominated={cert.dominated} "
                       f"bestK={cert.bestK!r} outside [{lo:.4f}, {hi:.4f}]")

    ops = [Op(f"verify_joint_type:{i}", "joint_type",
              lambda s=s: calderon.verify_joint_type([s]), joint_check)
           for i, s in enumerate(sigs)]
    cfg = criteria.ExponentConfig(3, 2)
    for k, (R, gamma) in enumerate(BRACKETS):
        ops.append(Op(f"bracket_constant:R={R:g},gamma={gamma}", "bracket",
                      _bracket_call(R, gamma, cfg, [seed, k]),
                      _bracket_check(R, gamma)))
    return ops


def _bracket_call(R, gamma, cfg, rng_seed):
    # fresh weights per call: extremal caches weight arrays by object id,
    # and a caller with new weights pays for the per-point evaluation
    def call():
        u = WeightSpec.indicator(R)
        v = WeightSpec.power(gamma, NONDECREASING)
        return extremal.bracket_constant(u, v, cfg,
                                         np.random.default_rng(rng_seed))
    return call


def _bracket_check(R, gamma):
    ref = oracle.indicator_power_constant(R, gamma, 3, 2)

    def check(br) -> Verdict:
        upper = oracle.extreal_close(br.upper, ref, oracle.CLOSED_TOL, "upper")
        if not upper.ok:
            return upper
        if not (math.isfinite(br.lower) and 0 < br.lower
                <= oracle.BRACKET_BAND * br.upper.value):
            return Verdict(False, f"lower {br.lower!r} outside (0, "
                           f"{oracle.BRACKET_BAND} * upper]", upper.rel_err)
        return upper
    return check


# -- cli ----------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class CliRunner:
    """Runs the CLI in fresh processes; with traced set, each process runs
    under bench/traced_cli.py and its per-layer totals are summed into
    layers."""
    root: str
    seed: int
    traced: bool = False
    layers: dict = field(default_factory=dict)

    @property
    def workdir(self) -> str:
        return os.path.join(self.root, "bench", "out", f"cli-{self.seed}")

    def run(self, args: list[str]) -> CliResult:
        if self.traced:
            summary = os.path.join(self.workdir, "layers.json")
            if os.path.exists(summary):  # never count a previous child twice
                os.remove(summary)
            cmd = [sys.executable,
                   os.path.join(self.root, "bench", "traced_cli.py"),
                   summary, *args]
        else:
            cmd = [sys.executable, "-m", "fourierineq.cli", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=self.workdir, timeout=CLI_TIMEOUT_S)
        if self.traced:
            with open(summary) as fh:
                for k, val in json.load(fh).items():
                    self.layers[k] = self.layers.get(k, 0) + val
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _write_inputs(runner: CliRunner) -> tuple[float, float]:
    """Seeded sequence and step-function CSVs for the norms subcommand;
    returns the library's values for them, which the CLI must reproduce."""
    os.makedirs(runner.workdir, exist_ok=True)
    rng = np.random.default_rng(runner.seed)
    seq = rng.lognormal(0.0, 1.5, 40)
    with open(os.path.join(runner.workdir, "seq.csv"), "w") as fh:
        fh.writelines(f"{n + 1},{float(x)!r}\n" for n, x in enumerate(seq))
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 8.0, 6))])
    f = StepFunction.from_cells(edges.tolist(),
                                rng.uniform(0.2, 3.0, 6).tolist())
    f.to_csv(os.path.join(runner.workdir, "f.csv"))
    theta = norms.theta_norm(
        norms.SequenceData.from_csv(os.path.join(runner.workdir, "seq.csv")),
        Fraction(3))
    ynorm = norms.optimal_Y_norm(
        StepFunction.from_csv(os.path.join(runner.workdir, "f.csv")),
        parse_weight("pow(1/4)"), Fraction(2))
    return theta.value, ynorm.value


def _json_report(res: CliResult, pick: Callable[[dict], Verdict]) -> Verdict:
    if res.code != 0:
        return Verdict(False, f"exit {res.code}: {res.err.strip()[-200:]}")
    try:
        report = json.loads(res.out)
    except ValueError:
        return Verdict(False, f"stdout is not JSON: {res.out[:200]!r}")
    return pick(report)


def _finite_json(x: dict, ref: float, tol: float, what: str) -> Verdict:
    if x.get("state") != "finite":
        return Verdict(False, f"{what} is {x.get('state')!r}, expected finite")
    return oracle.close(float(x["value"]), ref, tol, what)


def _exit_2(res: CliResult) -> Verdict:
    ok = res.code == 2
    return Verdict(ok, "" if ok else f"exit {res.code}, expected 2")


def cli_ops(runner: CliRunner) -> list[Op]:
    F = Fraction
    seed = str(runner.seed)
    theta_ref, ynorm_ref = _write_inputs(runner)
    root2 = oracle.pitt_constant(F(4, 3), F(2), F(0), F(1, 4))
    bracket_ref = oracle.indicator_power_constant(1.0, F(1, 4), 3, 2)

    def cli(name, args, check, defect=""):
        return Op(f"cli:{name}", "cli", lambda: runner.run(args), check,
                  defect)

    def estimate_check(j):
        upper = _finite_json(j["upper"], bracket_ref, oracle.CLOSED_TOL,
                             "upper")
        if upper.ok and not 0 < j["lower"] <= (oracle.BRACKET_BAND
                                               * j["upper"]["value"]):
            return Verdict(False, f"lower {j['lower']!r} out of band")
        return upper

    def verify_check(res):
        ok = res.code == 0 and res.out.count(" ok") == 1
        return Verdict(ok, "" if ok else f"exit {res.code}: {res.out!r}")

    def sweep_check(res):
        if res.code != 0:
            return Verdict(False, f"exit {res.code}: {res.err.strip()[-200:]}")
        with open(os.path.join(runner.workdir, "grid.csv")) as fh:
            rows = fh.read().split()[1:]
        holds = [r.rsplit(",", 1)[1] for r in rows]
        if holds != ["True", "False", "False", "False"]:
            return Verdict(False, f"holds column {holds}")
        return oracle.close(float(rows[0].split(",")[4]), root2,
                            oracle.CLOSED_TOL, "constant")

    crit = ["criteria", "--p", "2", "--q", "2", "--v", "pow(0)", "--u"]
    exit1 = "exits 1 instead of 2 on malformed input"
    return [
        cli("criteria", ["criteria", "--u", "pow(1/4)", "--v", "pow(0)",
                         "--p", "4/3", "--q", "2"],
            lambda r: _json_report(r, lambda j: _finite_json(
                j["constants"]["C3"], root2, oracle.CLOSED_TOL, "C3"))),
        cli("hardy", ["hardy", "--kind", "head_integral", "--u", "pow(3)",
                      "--v", "pow(1)", "--p", "2", "--q", "2"],
            lambda r: _json_report(r, lambda j: Verdict(
                j["K"]["state"] == "infinite",
                f"K is {j['K']['state']}, expected infinite"))),
        cli("norms-theta", ["norms", "--kind", "theta", "--seq", "seq.csv",
                            "--exponent", "3"],
            lambda r: _json_report(r, lambda j: _finite_json(
                j["value"], theta_ref, 1e-12, "theta"))),
        cli("norms-optimalY", ["norms", "--kind", "optimalY", "--f", "f.csv",
                               "--u", "pow(1/4)", "--exponent", "2"],
            lambda r: _json_report(r, lambda j: _finite_json(
                j["value"], ynorm_ref, 1e-12, "optimalY"))),
        cli("estimate", ["estimate", "--u", "ind(1)", "--v", "pow(1/4)",
                         "--p", "3", "--q", "2", "--N", "4096", "--L", "64",
                         "--seed", seed],
            lambda r: _json_report(r, estimate_check)),
        cli("verify", ["verify", "--suite", "plancherel", "--seed", seed],
            verify_check),
        cli("sweep", ["sweep", "--u", "pow(1/4)", "--v", "pow(0)",
                      "--p-list", "4/3,2", "--q-list", "2,4",
                      "--out", "grid.csv"], sweep_check),
        cli("bad-exponent", ["criteria", "--u", "pow(0)", "--v", "pow(0)",
                             "--p", "1/2", "--q", "2"], _exit_2),
        cli("bad-weight", crit + ["nope(1)"], _exit_2),
        cli("pow(1/0)", crit + ["pow(1/0)"], _exit_2,
            "ZeroDivisionError in parse_weight " + exit1),
        cli("ind(0)", ["criteria", "--u", "ind(0)", "--v", "pow(1/4)",
                       "--p", "3", "--q", "2"], _exit_2,
            "ind(0) is validated only lazily and " + exit1),
        cli("estimate-N1000", ["estimate", "--u", "ind(1)", "--v", "pow(1/4)",
                               "--p", "3", "--q", "2", "--N", "1000",
                               "--L", "64"], _exit_2,
            "a non-power-of-two N " + exit1),
        cli("pow(nan)", crit + ["pow(nan)"], _exit_2,
            "pow(nan) is accepted and certified finite with exit 0"),
    ]
