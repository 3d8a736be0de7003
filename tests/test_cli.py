import csv
import json
import math
from fractions import Fraction

import pytest

from fourierineq import criteria
from fourierineq.cli import main
from fourierineq.criteria import ExponentConfig, U_func, xi_func
from fourierineq.weights import WeightSpec


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """The report parsed as JSON proper: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_no_constant)


def test_criteria_plancherel(capsys):
    code, out = run(capsys, "criteria", "--u", "pow(0)", "--v", "pow(0)",
                    "--p", "2", "--q", "2")
    assert code == 0
    j = strict_json(out)
    assert j["regime"] == "I"
    assert j["holds"] is True
    assert j["constants"]["C3"]["value"] == pytest.approx(1.0, abs=1e-12)


GOVERNING = {"degenerate-p-one": "degenerate", "I": "C3", "II": "C4",
             "III": "C5", "IV": "C7", "V": "C8"}


@pytest.mark.parametrize("p, q", [("3", "2"), ("2", "1"), ("inf", "1"),
                                  ("3", "1"), ("2", "2"), ("1", "1"),
                                  ("3/2", "1/2")])
def test_criteria_v_vanishing_near_the_origin_is_infinite(tmp_path, capsys,
                                                          p, q):
    # v = 0 on (0, 1): an f supported there has ||v f||_p = 0 and
    # u Ff != 0, so no constant holds for any p
    table = tmp_path / "v.csv"
    table.write_text("0.0,0.0\n1.0,1.0\ntail,power,-1\n")
    code, out = run(capsys, "criteria", "--u", "ind(1)", "--v",
                    f"table({table})", "--p", p, "--q", q)
    assert code == 0
    j = strict_json(out)
    assert j["holds"] is False
    governing = j["constants"][GOVERNING[j["regime"]]]
    assert governing["state"] == "infinite"
    assert p == "1" or "(0, 1)" in governing["reason"]


def test_criteria_bad_exponent_exit_2(capsys):
    code, _ = run(capsys, "criteria", "--u", "pow(0)", "--v", "pow(0)",
                  "--p", "1/2", "--q", "2")
    assert code == 2


def test_criteria_bad_weight_exit_2(capsys):
    for u in ["nope(1)", "pow(nan)", "pow(inf)", "pow(1/0)", "ind(0)",
              "ind(-1)"]:
        code, _ = run(capsys, "criteria", "--u", u, "--v", "pow(0)",
                      "--p", "2", "--q", "2")
        assert code == 2, u


@pytest.mark.parametrize("u, v, p, q", [
    ("powlog(1,-1/10)", "pow(0)", "2", "3"),
    ("pow(0)", "powlog(1,-1/10)", "3", "2"),
    ("ind(1)", "powlog(1/4,-1/10)", "3", "2")])
def test_criteria_power_log_weight_monotone_in_its_slot(capsys, u, v, p, q):
    # |x|**-1 log(e+|x|)**(1/10) is non-increasing although its power and
    # log exponents differ in sign; so are the reciprocals of the two v
    code, out = run(capsys, "criteria", "--u", u, "--v", v, "--p", p,
                    "--q", q)
    assert code == 0
    j = strict_json(out)
    # u not in L^3 near 0, u = 1 not in L^2: no constant; the last is finite
    assert j["holds"] is (u == "ind(1)")


@pytest.mark.parametrize("slot, p, q", [("--u", "2", "3"), ("--v", "3", "2")])
def test_criteria_weight_without_exact_rearrangement_exit_2(capsys, slot,
                                                            p, q):
    # |x|**(-1/4) log(e+|x|) rises on (1.55, 39.5): not monotone; in the v
    # slot its reciprocal, |x|**(1/4) log(e+|x|)**-1, falls there
    other = "--v" if slot == "--u" else "--u"
    code = main(["criteria", slot, "powlog(1/4,-1)", other, "pow(0)",
                 "--p", p, "--q", q])
    assert code == 2
    assert "weight powlog(1/4,-1)" in capsys.readouterr().err


@pytest.mark.parametrize("rows, u, v", [
    ("0,1.3771100936785345\n1.089936277021461,2.1467835050436612\n"
     "tail,power,1/2\n", "table({})", "pow(0)"),
    ("0,1.4802427558635778\n3.7515993971685804,2.97719922056446\n"
     "tail,power,1/4\n", "table({})", "pow(0)"),
    ("0,2.972400369204712\n3.299806532485232,0.29377782841203903\n"
     "tail,power,-1\n", "ind(1)", "table({})")],
    ids=["u-tail-1/2", "u-tail-1/4", "v-tail-1"])
def test_criteria_table_with_a_tail_past_its_last_cell(tmp_path, capsys,
                                                       rows, u, v):
    # a power tail that starts above the last cell (in the v slot: 1/v
    # does), so the weight is not monotone and star cuts the tail at the
    # cell's level
    table = tmp_path / "w.csv"
    table.write_text(rows)
    code, out = run(capsys, "criteria", "--u", u.format(table), "--v",
                    v.format(table), "--p", "3", "--q", "2")
    assert code == 0
    assert strict_json(out)["regime"] == "II"


def test_criteria_power_log_weight_monotone_before_the_radial_map(capsys):
    # |x|**-1 log(e+|x|)**2 is non-increasing, but its ball-measure profile
    # in d = 3, whose log factor is asymptotic, is not: monotone is decided
    # on the r-profile.  u*(t) ~ t**(-1/3) near 0, so u*(t)**3 ~ 1/t is not
    # integrable there and C3 is infinite
    code, out = run(capsys, "criteria", "--u", "powlog(1,-2)", "--v",
                    "pow(0)", "--d", "3", "--p", "2", "--q", "3")
    assert code == 0
    c3 = strict_json(out)["constants"]["C3"]
    assert c3["state"] == "infinite" and "not integrable at 0" in c3["reason"]


def test_estimate_non_power_of_two_N_exit_2(capsys):
    code, _ = run(capsys, "estimate", "--u", "ind(1)", "--v", "pow(1/4)",
                  "--p", "3", "--q", "2", "--N", "1000", "--L", "64")
    assert code == 2


def test_estimate_N_below_4_exit_2(capsys):
    # the half-resolution witness runs at N/2 samples
    for N in ["2", "1", "0", "-4"]:
        code, _ = run(capsys, "estimate", "--u", "ind(1)", "--v", "pow(1/4)",
                      "--p", "3", "--q", "2", "--N", N)
        assert code == 2, N


def test_sweep_bad_exponent_exit_2(tmp_path, capsys):
    code, _ = run(capsys, "sweep", "--u", "pow(1/4)", "--v", "pow(0)",
                  "--p-list", "2,1/0", "--q-list", "2",
                  "--out", str(tmp_path / "grid.csv"))
    assert code == 2


def test_criteria_out_and_plots(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    plot_dir = tmp_path / "plots"
    code, _ = run(capsys, "criteria", "--u", "ind(1)", "--v", "pow(1/4)",
                  "--p", "3", "--q", "1/2",
                  "--out", str(out_file), "--plot-dir", str(plot_dir))
    assert code == 0
    j = strict_json(out_file.read_text())
    assert j["regime"] == "III"
    assert (plot_dir / "xi_over_U.csv").exists()


def test_criteria_plot_rows_are_xi_over_U(tmp_path, capsys):
    plot_dir = tmp_path / "plots"
    code, _ = run(capsys, "criteria", "--u", "ind(1)", "--v", "pow(1/4)",
                  "--p", "3", "--q", "1/2", "--plot-dir", str(plot_dir))
    assert code == 0
    with open(plot_dir / "xi_over_U.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "xi_over_U"]
    cfg = ExponentConfig(3, Fraction(1, 2))
    U = U_func(WeightSpec.indicator(1.0), cfg)
    xi = xi_func(WeightSpec.indicator(1.0), cfg)
    assert len(rows) == 201
    for t, ratio in rows[1:]:
        t = float(t)
        assert float(ratio) == pytest.approx(xi(t) / U(t), rel=1e-12, abs=0.0)


def test_criteria_plot_error_is_not_swallowed(tmp_path, capsys, monkeypatch):
    # only a certified divergence of U or of xi's tail skips the profile;
    # any other fault is an internal error.  evaluate calls xi_func too, so
    # xi breaks only once the criteria are evaluated: in the profile
    def broken(u, cfg):
        raise RuntimeError("broken xi")

    def evaluate(*args):
        report = real_evaluate(*args)
        monkeypatch.setattr(criteria, "xi_func", broken)
        return report

    real_evaluate = criteria.evaluate
    monkeypatch.setattr(criteria, "evaluate", evaluate)
    code = main(["criteria", "--u", "ind(1)", "--v", "pow(1/4)", "--p", "3",
                 "--q", "1/2", "--plot-dir", str(tmp_path / "plots")])
    assert code == 1
    assert "RuntimeError: broken xi" in capsys.readouterr().err


def test_hardy_cli(capsys):
    code, out = run(capsys, "hardy", "--kind", "head_integral",
                    "--u", "pow(3)", "--v", "pow(-1)",
                    "--p", "2", "--q", "2")
    assert code == 0
    j = strict_json(out)
    assert j["K"]["state"] in ("finite", "infinite")


def test_hardy_cli_exact_exponent_divergence(capsys):
    # v^{1/(1-p)} = t^{-1} at p = 7/3: not integrable at 0, so K is infinite
    code, out = run(capsys, "hardy", "--kind", "head_integral",
                    "--u", "ind(1)", "--v", "pow(4/3)",
                    "--p", "7/3", "--q", "7/3")
    assert code == 0
    assert strict_json(out)["K"]["state"] == "infinite"


def test_hardy_discrete_with_oracle(capsys):
    code, out = run(capsys, "hardy", "--kind", "head_sum",
                    "--u", "1,0.5,0.25", "--v", "1,1,1",
                    "--p", "1", "--q", "1/2", "--oracle", "--seed", "1")
    assert code == 0
    j = strict_json(out)
    assert j["K"]["state"] == "finite"
    assert j["oracle_lower_bound"] > 0


def test_hardy_head_sum_requires_v(capsys):
    # the weight default pow(0) of --v is no sequence: head_sum without --v
    # names the missing option; the other kinds keep pow(0)
    code = main(["hardy", "--kind", "head_sum", "--u", "1,0.5", "--p", "2",
                 "--q", "1"])
    assert code == 2
    assert "--v is required for head_sum" in capsys.readouterr().err
    code, out = run(capsys, "hardy", "--kind", "tail_integral", "--u",
                    "ind(1)", "--p", "2", "--q", "2")
    assert code == 0 and strict_json(out)["K"]["state"] == "infinite"


@pytest.mark.parametrize("u, v", [("1,nan", "1,1"), ("1,inf", "1,1"),
                                  ("1,-1", "1,1"), ("1,1", "1,nan"),
                                  ("1,1", "1,-2")])
def test_hardy_discrete_bad_sequence_exit_2(capsys, u, v):
    # u must be finite and non-negative, v non-negative and not nan
    code = main(["hardy", "--kind", "head_sum", "--u", u, "--v", v,
                 "--p", "2", "--q", "1"])
    assert code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["hardy", "--kind", "head_integral", "--u", "pow(2)", "--p", "2",
     "--q", "2", "--oracle"],
    ["estimate", "--u", "ind(1)", "--v", "pow(1/4)", "--p", "3", "--q", "2"],
    ["verify", "--suite", "plancherel"]])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_exit_2(capsys, args, seed):
    # the parser refuses a seed that is not a non-negative integer
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", seed])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_hardy_oracle_reads_the_classical_constant(capsys):
    # u = t^-2, v = 1 at p = q = 2: the classical Hardy inequality, sharp
    # constant 2; the oracle is the maximum over 24 cells, for every seed
    values = set()
    for seed in ("0", "5"):
        code, out = run(capsys, "hardy", "--kind", "head_integral", "--u",
                        "pow(2)", "--v", "pow(0)", "--p", "2", "--q", "2",
                        "--oracle", "--seed", seed)
        assert code == 0
        values.add(strict_json(out)["oracle_lower_bound"])
    value, = values
    assert 1.6 < value <= 2.0


def test_hardy_discrete_oracle_with_a_short_v(capsys):
    # v is padded with inf to the length of u, and x_3 held at 0 where
    # v_3 = inf: K and the oracle read the same problem
    code, out = run(capsys, "hardy", "--kind", "head_sum",
                    "--u", "1,0.5,0.25", "--v", "1,1",
                    "--p", "1", "--q", "1/2", "--oracle", "--seed", "1")
    assert code == 0
    j = strict_json(out)
    K = j["K"]["value"]
    assert j["K"]["state"] == "finite" and K > 0
    assert K / 8.0 <= j["oracle_lower_bound"] <= 8.0 * K


@pytest.mark.parametrize("kind,weights", [
    ("head_integral", ("--u", "pow(3)", "--v", "pow(-1)", "--p", "2",
                       "--q", "2")),
    ("tail_integral", ("--u", "ind(1)", "--v", "pow(2)", "--p", "2",
                       "--q", "2")),
    ("reverse", ("--u", "ind(1)", "--p", "1", "--q", "1/2")),
])
def test_hardy_oracle_of_every_continuous_kind(capsys, kind, weights):
    # the search at its default sizes
    code, out = run(capsys, "hardy", "--kind", kind, *weights, "--oracle",
                    "--seed", "1")
    assert code == 0
    j = strict_json(out)
    assert j["K"]["state"] == "finite"
    assert j["oracle_lower_bound"] > 0


def test_hardy_oracle_infinite_where_the_left_side_diverges(capsys):
    # u = t^(-1/2) is not integrable at infinity, so every test input makes
    # the left side diverge: K and the oracle are both infinite, and the
    # report is JSON proper
    code, out = run(capsys, "hardy", "--kind", "head_integral",
                    "--u", "pow(1/2)", "--v", "pow(1)", "--p", "2",
                    "--q", "2", "--oracle")
    assert code == 0
    j = strict_json(out)
    assert j["K"]["state"] == "infinite"
    assert j["oracle_lower_bound"]["state"] == "infinite"


def test_every_readme_command_exits_0(tmp_path, monkeypatch, capsys):
    # each `fourierineq ...` line of the README, run in a directory that
    # holds the files it names
    import pathlib
    import shlex
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("fourierineq ")]
    assert len(lines) >= 8
    (tmp_path / "coeffs.csv").write_text("1,1.0\n2,0.5\n3,0.25\n")
    (tmp_path / "f.csv").write_text("0,2\n1,1\n3,0\ntail,zero\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code = main(shlex.split(line)[1:])
        capsys.readouterr()
        assert code == 0, line


def test_norms_theta_from_csv(tmp_path, capsys):
    seq = tmp_path / "seq.csv"
    seq.write_text("1,1.0\n2,0.5\n")
    code, out = run(capsys, "norms", "--kind", "theta",
                    "--seq", str(seq), "--exponent", "4")
    assert code == 0
    j = strict_json(out)
    assert j["value"]["state"] == "finite"


def test_norms_requires_input(capsys):
    code, _ = run(capsys, "norms", "--kind", "theta", "--exponent", "4")
    assert code == 2


@pytest.mark.parametrize("args", [
    ("criteria", "--u", "table(missing.csv)", "--v", "pow(0)", "--p", "2",
     "--q", "2"),
    ("norms", "--kind", "optimalY", "--f", "missing.csv", "--u", "pow(1/4)"),
    ("norms", "--kind", "morrey", "--f", "missing.csv", "--shape", "ind(1)"),
    ("norms", "--kind", "theta", "--seq", "missing.csv"),
], ids=["criteria-u-table", "optimalY-f", "morrey-f", "theta-seq"])
def test_missing_input_file_exit_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert main(list(args)) == 2
    assert "missing.csv" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("--kind", "optimalY", "--f", "f.csv"),
    ("--kind", "morrey", "--f", "f.csv"),
    ("--kind", "expL", "--f", "f.csv", "--d", "0"),
])
def test_norms_weight_and_dimension_checked_exit_2(capsys, args):
    assert run(capsys, "norms", *args)[0] == 2


@pytest.mark.parametrize("L", ["0", "-1", "nan", "inf"])
def test_estimate_L_must_be_positive_and_finite(capsys, L):
    code = main(["estimate", "--u", "ind(1)", "--v", "pow(1/4)", "--p", "3",
                 "--q", "2", "--N", "256", "--L", L])
    assert code == 2
    assert "--L" in capsys.readouterr().err


def test_estimate_plancherel(capsys):
    code, out = run(capsys, "estimate", "--u", "pow(0)", "--v", "pow(0)",
                    "--p", "2", "--q", "2", "--N", "512", "--L", "16",
                    "--budget", "2", "--seed", "7")
    assert code == 0
    j = strict_json(out)
    assert j["upper"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert j["lower"] >= 0.99


def test_estimate_singular_u_reports_finite_lower(capsys):
    # the README's criteria config: u = |xi|**-1/4 is infinite at xi = 0,
    # a sample of the dual grid
    code, out = run(capsys, "estimate", "--u", "pow(1/4)", "--v", "pow(0)",
                    "--p", "4/3", "--q", "2")
    assert code == 0
    j = strict_json(out)
    assert j["upper"]["state"] == "finite"
    assert 0 < j["lower"] <= 1.5 * j["upper"]["value"]
    assert all(math.isfinite(x) for x in j["witnesses"].values())
    assert math.isfinite(j["half_resolution_lower"])


def test_estimate_infinite_lower_is_an_extreal(capsys):
    # at q = inf a weight infinite at xi = 0 makes every ratio infinite
    code, out = run(capsys, "estimate", "--u", "pow(1/4)", "--v", "pow(0)",
                    "--p", "1", "--q", "inf", "--N", "512", "--L", "16",
                    "--budget", "2")
    assert code == 0
    j = strict_json(out)
    assert j["upper"]["state"] == "infinite"
    assert j["lower"] == {"state": "infinite"}
    assert j["half_resolution_lower"] == {"state": "infinite"}


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "plancherel", "--seed", "7")
    assert code == 0 and "ok" in out
    code, out = run(capsys, "verify", "--suite", "fourier", "--seed", "7")
    assert code == 0 and "0 violations" in out


def test_sweep_csv(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _ = run(capsys, "sweep", "--u", "ind(1)", "--v", "pow(1/4)",
                  "--p-list", "3/2,3", "--q-list", "1/2,2",
                  "--out", str(out_file))
    assert code == 0
    with open(out_file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {"p", "q", "regime", "state", "constant", "holds"} <= set(rows[0])


def test_criteria_d_sets_the_dimension_of_every_weight(capsys):
    # in d = 3 the constant is infinite (t**(-3/2) at 0); the weights used
    # to stay one-dimensional, and the report said holds: true
    code, out = run(capsys, "criteria", "--u", "ind(1)", "--v", "pow(1/4)",
                    "--p", "3", "--q", "2", "--d", "3")
    assert code == 0
    j = strict_json(out)
    assert (j["u"], j["v"], j["config"]["d"]) == ("ind(1)@d=3",
                                                  "pow(1/4)@d=3", 3)
    assert j["holds"] is False
    assert j["constants"]["C4"]["state"] == "infinite"


@pytest.mark.parametrize("args", [
    ("criteria", "--u", "ind(1)@d=3", "--v", "pow(1/4)", "--p", "3",
     "--q", "2"),
    ("criteria", "--u", "ind(1)", "--v", "pow(1/4)@d=2", "--p", "3",
     "--q", "2", "--d", "3"),
    ("estimate", "--u", "ind(1)@d=2", "--v", "pow(1/4)", "--p", "3",
     "--q", "2", "--N", "256"),
    ("sweep", "--u", "ind(1)", "--v", "pow(1/4)@d=3", "--p-list", "3",
     "--q-list", "2"),
])
def test_mixed_dimensions_exit_2(capsys, args):
    assert run(capsys, *args)[0] == 2


def test_estimate_reports_no_lower_bound_in_d3(capsys):
    code, out = run(capsys, "estimate", "--u", "ind(1)", "--v", "pow(1/4)",
                    "--p", "3", "--q", "2", "--d", "3", "--N", "256")
    assert code == 0
    j = strict_json(out)
    assert j["lower"] is None and j["witnesses"] == {}
    assert j["notes"] and "half_resolution_lower" not in j
