"""End-to-end command-line tests, run in process through cli.run."""

import inspect
import json

import pytest

import sumprodlab.harness.base as hbase
from sumprodlab import cli
from sumprodlab.harness import read_report, stats_from_spec


def run_ok(capsys, argv):
    rc = cli.run(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return out


# -- subgroup ------------------------------------------------------------------

def test_subgroup_gaps_worked_example(capsys):
    out = run_ok(capsys, ["subgroup", "--p", "7", "--t", "3", "--gaps"])
    assert "subgroup of order 3 in F_7*" in out
    assert "H = 3" in out
    assert "H / p^(437/480)" in out


def test_subgroup_default_prints_energy_and_gap(capsys):
    out = run_ok(capsys, ["subgroup", "--p", "7", "--t", "3"])
    assert "E = 15, H = 3" in out


def test_subgroup_window_dual_count(capsys):
    out = run_ok(capsys, ["subgroup", "--p", "7", "--t", "3", "--window", "2"])
    assert "N(2) = 8" in out and "(4h^2 = 16)" in out


def test_subgroup_chars_and_ks(capsys):
    out = run_ok(capsys, ["subgroup", "--p", "7", "--t", "3", "--chars"])
    assert "strict fourth-moment bound holds: True" in out
    assert "t*sum|S|^2 = 12.000000 (target 12)" in out
    out = run_ok(capsys, ["subgroup", "--p", "7", "--t", "3", "--ks", "1"])
    assert "threshold t/2 = 1.5" in out and "holds = False" in out


def test_subgroup_lift_table(capsys):
    out = run_ok(capsys, ["subgroup", "--p", "3", "--t", "2", "--lift"])
    assert "T_3: mod p^2 = 20, mod p = 22" in out


def test_subgroup_usage_errors(capsys):
    assert cli.run(["subgroup", "--p", "9", "--t", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.run(["subgroup", "--p", "7", "--t", "4"]) == 2


def test_subgroup_chars_guard_exits_three(capsys):
    # 10000019 is prime and above subgroups.CHAR_P_CAP
    assert cli.run(["subgroup", "--p", "10000019", "--t", "2", "--chars"]) == 3
    assert "refused:" in capsys.readouterr().err


# -- stats ---------------------------------------------------------------------

def test_stats_family(capsys):
    out = run_ok(capsys, ["stats", "--family", "ap(n=8)"])
    assert "|A| = 8" in out and "|A+A| = 15" in out and "E3 = " in out


def test_stats_set_file(tmp_path, capsys):
    f = tmp_path / "small.txt"
    f.write_text("kind: rational\n1\n2\n3  # comments are fine\n")
    out = run_ok(capsys, ["stats", "--set", str(f)])
    assert "small.txt:" in out
    assert "|A| = 3" in out and "E = 19" in out and "T3 = 141" in out


def test_stats_set_file_large_prime(tmp_path, capsys):
    # {1, 2, 4} mod 2^31 - 1 has no wrap-around: T3 is the rational count
    f = tmp_path / "big.txt"
    f.write_text("kind: modp p=2147483647\n1\n2\n4\n")
    out = run_ok(capsys, ["stats", "--set", str(f)])
    assert "|A| = 3" in out and "T3 = 99" in out


def test_stats_set_file_reads_decimals(tmp_path, capsys):
    f = tmp_path / "decimal.txt"
    f.write_text("kind: rational\n1.5\n2\n3\n")
    out = run_ok(capsys, ["stats", "--set", str(f)])
    # {3/2, 2, 3} is {3, 4, 6} / 2: E = 3^2 + 6 * 1^2
    assert "|A| = 3" in out and "E = 15" in out


@pytest.mark.parametrize("text", [
    "kind: modp p=4\n1\n2\n3\n",  # composite modulus
    "kind: modp p=1\n1\n",  # no field at all
    "kind: modp p=x\n1\n",  # unreadable modulus
    "kind: rational\n1\nabc\n",  # unreadable element
    "kind: modp p=7\n1.5\n",  # a decimal is no residue
    "kind: rational\n1/0\n",  # zero denominator
])
def test_malformed_set_file_is_usage_error(tmp_path, capsys, text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert cli.run(["stats", "--set", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stats", "verify", "spectral", "rect"])
def test_set_file_with_no_element_is_usage_error(tmp_path, capsys, command):
    f = tmp_path / "header_only.txt"
    f.write_text("kind: rational\n# no elements\n")
    assert cli.run([command, "--set", str(f)]) == 2
    assert f"error: {f}: " in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["ap(n=abc)", "geo(q=2,n=4))", "rand(n=3,seed=1/0)",
                                  "subgroup(p=7,t=3/2)", "ap(n=3,n=5)",
                                  "union(ap(n=3),ap(n=3,n=4))"])
def test_malformed_family_spec_is_usage_error(capsys, spec):
    assert cli.run(["stats", "--family", spec]) == 2
    assert "error:" in capsys.readouterr().err


def test_stats_no_input_is_usage_error(capsys):
    assert cli.run(["stats"]) == 2
    assert "no input" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------

def test_verify_passes_and_writes_report(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    out = run_ok(capsys, [
        "verify", "--family", "geo(q=2, n=8)",
        "--checks", "cs_support, e3_identity", "--out", str(out_file)])
    assert "proved-exact" in out
    assert "2 proved-exact, 0 ratio-only, 0 failed" in out
    assert f"report written to {out_file}" in out
    rep = read_report(str(out_file))
    assert [r.check_id for r in rep.results] == ["cs_support", "e3_identity"]
    assert not rep.failed()


def test_verify_deterministic_is_reproducible(tmp_path, capsys):
    argv = ["verify", "--family", "ap(n=6)", "--checks", "cs_support",
            "--deterministic", "--out"]
    run_ok(capsys, argv + [str(tmp_path / "a.json")])
    run_ok(capsys, argv + [str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("checks", ["all", "all-exact"])
def test_verify_one_element_input_leaves_other_rows_alone(tmp_path, capsys, checks):
    # log |A| and the dyadic classes need two elements, so ap(n=1) runs no set check
    argv = ["verify", "--family", "ap(n=8)", "--checks", checks, "--deterministic", "--out"]
    run_ok(capsys, argv + [str(tmp_path / "alone.json")])
    run_ok(capsys, argv[:3] + ["--family", "ap(n=1)"] + argv[3:] + [str(tmp_path / "both.json")])
    alone, both = (read_report(str(tmp_path / f"{name}.json")) for name in ("alone", "both"))
    assert alone.results and both.results == alone.results


def test_verify_corpus_smoke(capsys):
    out = run_ok(capsys, ["verify", "--corpus", "identity", "--checks", "e3_identity"])
    assert "20 proved-exact, 0 ratio-only, 0 failed" in out


def test_verify_missing_set_file(capsys):
    assert cli.run(["verify", "--set", "missing.txt"]) == 2
    assert "cannot read set file" in capsys.readouterr().err


def test_verify_unknown_check(capsys):
    assert cli.run(["verify", "--family", "ap(n=4)", "--checks", "nonsense"]) == 2


def test_verify_failed_check_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        hbase._REGISTRY, "tmp_red",
        hbase.CheckSpec("tmp_red", "set", True, lambda s: (2, 1, 2.0, False)))
    out_file = tmp_path / "red.json"
    rc = cli.run(["verify", "--family", "ap(n=4)", "--checks", "tmp_red",
                  "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 1 and "failed" in out

    # and the stored report keeps the failure visible through the viewer
    rc = cli.run(["report", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 1 and "FAILED tmp_red" in out


def test_checks_read_one_input_and_only_rect_takes_a_profile(capsys):
    # a check is a function of its input alone, so verify takes no profile
    assert all(len(inspect.signature(spec.fn).parameters) == 1
               for spec in hbase.registry().values())
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--family", "ap(n=16)", "--profile", "desk"])
    assert exc.value.code == 2
    out = run_ok(capsys, ["rect", "--family", "ap(n=16)", "--profile", "desk"])
    assert "round(s)" in out


# -- scan ----------------------------------------------------------------------

def test_scan_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "gaps.csv"
    out = run_ok(capsys, ["scan", "p in [3,50], t | p-1, t in [2,50]",
                          "--out", str(out_file)])
    assert "scanned" in out and "max H / p^(437/480)" in out
    lines = out_file.read_text().splitlines()
    assert lines[0] == "p,t,H,normalized"
    p, t, gap, norm = lines[1].split(",")
    assert float(norm) == pytest.approx(int(gap) / int(p) ** (437 / 480))


def test_scan_empty_and_malformed_specs(capsys):
    out = run_ok(capsys, ["scan", "p in [1000,1002], t | p-1, t in [9999,9999]"])
    assert "matched no (p, t) pairs" in out
    assert cli.run(["scan", "gibberish"]) == 2
    assert cli.run(["scan", "p in [5,3], t | p-1"]) == 2


def test_scan_budget_truncates(tmp_path, capsys):
    out = run_ok(capsys, ["scan", "p in [3,200000], t | p-1", "--budget", "0.2",
                          "--out", str(tmp_path / "partial.csv")])
    assert "budget hit" in out
    # the partial file still carries the header plus flushed rows
    assert (tmp_path / "partial.csv").read_text().startswith("p,t,H,normalized")


# -- spectral and rect ---------------------------------------------------------

def test_spectral_smoke(capsys):
    out = run_ok(capsys, ["spectral", "--family", "ap(n=6)"])
    assert "chain holds: True" in out and "ok = True" in out


def test_spectral_runs_wherever_verify_proves_the_chain(capsys):
    # |A-A| = 4,029 lies just under energy.SIGMA_SUPPORT_CAP, which the
    # command and the check share
    stats = stats_from_spec("rand(n=64,seed=19)")
    row = hbase.run_check("spectral_chain", stats)
    assert row.verdict == "proved-exact"
    out = run_ok(capsys, ["spectral", "--family", "rand(n=64,seed=19)"])
    # the check reports its worst delta, here the default max r = 64
    assert "delta = 64" in out
    assert f"E'^6 = {row.lhs} <= n^6 E3 delta^2 Sigma = {row.rhs}" in out


def test_rect_smoke_and_sums(capsys):
    out = run_ok(capsys, ["rect", "--family", "ap(n=16)", "--sums"])
    assert "case1 after 1 round(s)" in out
    assert "witnessed grid triples >=" in out


def test_rect_guard_exits_three(capsys):
    assert cli.run(["rect", "--family", "ap(n=513)"]) == 3
    assert "refused:" in capsys.readouterr().err


def test_rect_below_min_size_is_usage_error(capsys):
    assert cli.run(["rect", "--family", "ap(n=2)"]) == 2
    assert "error: rectangle decomposition needs at least 4 elements" in capsys.readouterr().err
    # verify's guards keep such a set from the decomposition, so it still passes
    run_ok(capsys, ["verify", "--family", "ap(n=3)", "--checks", "all"])


# -- report --------------------------------------------------------------------

def test_report_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    run_ok(capsys, ["verify", "--family", "ap(n=6)", "--checks", "cs_support",
                    "--deterministic", "--out", str(out_file)])
    out = run_ok(capsys, ["report", str(out_file)])
    assert "sumprodlab-report-v1 | corpus ap(n=6,start=1,step=1) | " \
           "generated deterministic" in out
    assert "1 proved-exact, 0 ratio-only, 0 failed" in out


def test_report_missing_and_malformed(tmp_path, capsys):
    assert cli.run(["report", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["report", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "other", "results": []}))
    assert cli.run(["report", str(wrong)]) == 2


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--family", "ap(n=4)", "--max-grid", "5"])
    assert exc.value.code == 2
