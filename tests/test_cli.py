import csv
import io
import json

import numpy as np
import pytest

from impartial import engine
from impartial.cli import main
from impartial.generators import lower_bound_family, ub_family
from impartial.graphs import graph_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_cycle(capsys):
    code, out, _ = run_cli(capsys, "gen", "family=cycle", "n=7")
    assert code == 0
    assert out == "7; 7,1,2,3,4,5,6\n"


def test_gen_ub_member(capsys):
    code, out, _ = run_cli(capsys, "gen", "family=ub", "n=7", "i=0")
    assert code == 0
    assert out.strip() == graph_to_text(ub_family(7, 0))


def test_gen_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "gen", "family=lb", "delta=4", "nprime=2")
    assert code == 0
    assert out.strip() == graph_to_text(lower_bound_family(4, 2))


def test_gen_json_embeds_config(capsys):
    code, out, _ = run_cli(capsys, "gen", "family=cycle", "n=5", "--format", "json")
    payload = json.loads(out)
    assert payload["tool"] == "impartial" and "version" in payload
    assert payload["config"]["params"] == ["family=cycle", "n=5"]
    assert payload["graph"] == "5; 5,1,2,3,4"


def test_gen_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "family=cycle", "n=1")
    assert code == 2 and "error" in err


def test_eval_rd_two_cycle(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2; 2,1\n"))
    code, out, _ = run_cli(capsys, "eval", "--mech", "rd")
    payload = json.loads(out)
    assert code == 0
    assert [d["prob"] for d in payload["distribution"]] == ["1/2", "1/2"]
    assert payload["ratio"]["ratio"] == "1/1"


def test_eval_mix_small_n_equals_rd(capsys, tmp_path):
    g = lower_bound_family(2, 1)
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(g) + "\n")
    _, out_mix, _ = run_cli(capsys, "eval", "--mech", "mix", "--graph", str(path))
    _, out_rd, _ = run_cli(capsys, "eval", "--mech", "rd", "--graph", str(path))
    mix_dist = json.loads(out_mix)["distribution"]
    rd_dist = json.loads(out_rd)["distribution"]
    assert mix_dist == rd_dist


def test_eval_sampled_byte_identical(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3; 2,1,1\n")
    args = ("eval", "--mech", "perm", "--graph", str(path), "--samples", "2000", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert sum(row["count"] for row in payload["frequencies"]) == 2000


def test_eval_sampled_requires_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("IMPARTIAL_SEED", raising=False)
    path = tmp_path / "g.txt"
    path.write_text("2; 2,1\n")
    code, _, err = run_cli(capsys, "eval", "--mech", "rd", "--graph", str(path), "--samples", "10")
    assert code == 2 and "seed" in err


def test_eval_seed_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("IMPARTIAL_SEED", "99")
    path = tmp_path / "g.txt"
    path.write_text("2; 2,1\n")
    code, out, _ = run_cli(capsys, "eval", "--mech", "rd", "--graph", str(path), "--samples", "50")
    assert code == 0
    assert json.loads(out)["samples"] == 50


def test_eval_capacity_exit_code(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(lower_bound_family(2, 7)) + "\n")  # n = 17
    code, _, err = run_cli(capsys, "eval", "--mech", "perm", "--graph", str(path))
    assert code == 3 and "capacity" in err


def test_eval_prugd_has_no_cap_but_mix_keeps_the_scan_cap(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(ub_family(12, 1)) + "\n")
    code, out, _ = run_cli(capsys, "eval", "--mech", "prugd", "--graph", str(path))
    assert code == 0 and json.loads(out)["total"] == "1/1"
    path.write_text(graph_to_text(lower_bound_family(2, 7)) + "\n")  # n = 17
    code, _, err = run_cli(capsys, "eval", "--mech", "mix", "--graph", str(path))
    assert code == 3 and "capacity" in err


def test_eval_perm_and_mix_exact_past_the_ordering_table(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(lower_bound_family(2, 5)) + "\n")  # n = 13
    for mech in ("perm", "mix"):
        code, out, _ = run_cli(capsys, "eval", "--mech", mech, "--graph", str(path))
        assert code == 0 and json.loads(out)["total"] == "1/1", mech


def test_unexpected_exception_exits_internal(capsys, monkeypatch, tmp_path):
    def broken_kernel(out0, exclude_candidate=True):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(engine, "selection_counts", broken_kernel)
    path = tmp_path / "g.txt"
    path.write_text("3; 2,3,1\n")
    code, out, err = run_cli(capsys, "eval", "--mech", "perm", "--graph", str(path))
    assert code == 4 and out == ""
    assert "internal error: RuntimeError" in err and "kernel fault" in err


def test_eval_missing_graph_file_usage(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "eval", "--mech", "rd", "--graph", str(tmp_path / "absent.txt")
    )
    assert code == 2 and err.startswith("error:") and out == ""


def usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_eval_zero_samples_usage(capsys):
    code, err = usage_exit(capsys, "eval", "--mech", "rd", "--samples", "0", "--seed", "1")
    assert code == 2 and "--samples" in err


def test_eval_negative_samples_usage(capsys):
    code, err = usage_exit(capsys, "eval", "--mech", "rd", "--samples", "-5", "--seed", "1")
    assert code == 2 and "at least 1" in err


def test_verify_bounds_n1_usage(capsys):
    code, err = usage_exit(capsys, "verify", "bounds", "--mech", "perm", "--n", "1")
    assert code == 2 and "--n" in err


def test_worst_case_n1_usage(capsys):
    code, err = usage_exit(capsys, "worst-case", "--mech", "rd", "--n", "1")
    assert code == 2 and "at least 2" in err


def test_jobs_zero_usage(capsys):
    code, err = usage_exit(capsys, "verify", "lemma3", "--n", "3", "--jobs", "0")
    assert code == 2 and "--jobs" in err
    code, _ = usage_exit(capsys, "worst-case", "--mech", "rd", "--n", "3", "--jobs", "0")
    assert code == 2


def test_non_integer_number_usage(capsys):
    code, err = usage_exit(capsys, "verify", "bounds", "--n", "five")
    assert code == 2 and "invalid int value" in err


def test_verify_tightness_non_integer_nprimes_usage(capsys):
    code, err = usage_exit(capsys, "verify", "tightness", "--nprimes", "1,x")
    assert code == 2 and "--nprimes" in err


def test_verify_tightness_empty_nprimes_usage(capsys):
    code, err = usage_exit(capsys, "verify", "tightness", "--nprimes", ",,")
    assert code == 2 and "--nprimes" in err


def test_verify_tightness_one_sampled_draw_usage(capsys):
    code, out, err = run_cli(
        capsys, "verify", "tightness", "--delta", "2", "--nprimes", "10", "--samples", "1"
    )
    assert code == 2 and out == "" and "at least 2 draws" in err


def test_verify_correlation_negative_graphs_usage(capsys):
    code, err = usage_exit(capsys, "verify", "correlation", "--graphs", "-3")
    assert code == 2 and "--graphs" in err


def test_eval_csv_format(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2; 2,1\n"))
    code, out, _ = run_cli(capsys, "eval", "--mech", "rd", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vertex", "prob", "decimal"]
    assert rows[1][1] == "1/2"


def test_verify_impartial_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "impartial", "--mech", "perm", "--n", "4")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert payload["graphs_checked"] == 81


def test_verify_bounds_rd(capsys):
    code, out, _ = run_cli(capsys, "verify", "bounds", "--mech", "rd", "--n", "4")
    payload = json.loads(out)
    assert code == 0 and payload["min_ratio"] == "3/4"


def test_verify_bounds_rd_large_n_usage(capsys):
    code, _, err = run_cli(capsys, "verify", "bounds", "--mech", "rd", "--n", "6")
    assert code == 2 and "n <= 5" in err


def test_verify_correlation(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "correlation", "--n", "6", "--graphs", "10", "--seed", "1"
    )
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and payload["graphs_checked"] == 11


def test_verify_ub_chain_perm(capsys):
    code, out, _ = run_cli(capsys, "verify", "ub-chain", "--mech", "perm", "--n", "6")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert payload["min_family_ratio"] == "163/240"
    assert payload["bound"] == "35/48"


def test_verify_tightness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "tightness", "--delta", "2", "--nprimes", "1,2"
    )
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert [r["ratio"] for r in payload["rows"]] == ["43/60", "29/42"]


def test_verify_lemma3(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma3", "--n", "4")
    payload = json.loads(out)
    assert code == 0
    assert payload["orderings_run"] == 81 * 24
    assert payload["left_max_violations"] == 0


def test_verify_lemma3_fails_on_a_late_takeover(capsys, monkeypatch):
    # the scan with its takeover threshold one too high: v must beat the
    # candidate's left indegree instead of tying it
    def late_takeover(out0, perms, pos, exclude_candidate=True):
        c = engine.left_indegree_matrix(out0, pos)
        a = engine.adjacency(out0)
        rows = np.arange(perms.shape[0])
        cand = perms[:, 0].copy()
        d = np.zeros(perms.shape[0], dtype=np.int16)
        for j in range(1, perms.shape[1]):
            v = perms[:, j]
            upd = c[rows, v] - a[cand, v] > d
            cand = np.where(upd, v, cand)
            d = np.where(upd, c[rows, v], d)
        return cand, d, c.max(axis=1)

    monkeypatch.setattr(engine, "run_selection", late_takeover)
    code, out, _ = run_cli(capsys, "verify", "lemma3", "--n", "4")
    payload = json.loads(out)
    assert code == 1 and not payload["passed"]
    assert payload["orderings_run"] == 81 * 24
    assert payload["left_max_violations"] > 0


def test_figure3_csv(capsys):
    code, out, _ = run_cli(capsys, "figure3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["delta", "case", "perm", "prugd", "mix"]
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    assert by_key[("2", "all")][4] == "2105/3147"
    assert by_key[("2", "all")][3] == "65/96"
    assert by_key[("4", "all")][5] == "0.700000000000"
    assert len(rows) - 1 == 15  # deltas 2..15 with the delta=3 split


def test_figure3_decimal_close():
    from fractions import Fraction

    assert abs(float(Fraction(2105, 3147)) - 0.668891) < 1e-6


def test_worst_case_cmd(capsys):
    code, out, _ = run_cli(capsys, "worst-case", "--mech", "rd", "--n", "4")
    payload = json.loads(out)
    assert code == 0 and payload["min_ratio"] == "3/4"
    assert payload["graphs_checked"] == 81


def test_unknown_mechanism_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--mech", "nope"])
    assert exc.value.code == 2
