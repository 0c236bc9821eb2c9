import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from impartial import analysis, cli, engine
from impartial.cli import main
from impartial.generators import cycle, lower_bound_family, random_graph, ub_family
from impartial.graphs import graph_to_text
from impartial.mechanisms import MECHANISMS


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


def test_gen_repeated_key_is_a_usage_error(capsys):
    for params in (("n=7", "n=3"), ("family=ub", "n=7", "i=0")):
        code, out, err = run_cli(capsys, "gen", "family=cycle", *params)
        assert code == 2 and out == "" and "given more than once" in err, params


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


# sha256 of eval --samples stdout at seed 7, graph on stdin: 2000 draws on
# "5; 3,5,1,1,2" and 300 on random_graph(50, 3), pinned so that every
# sampler's stream and both output formats stay byte-identical
EVAL_SAMPLES_SHA256 = {
    ("n5", "perm", "json"): "b3ec856c6fbb8c310f5ffcf4cd26a4cf19aff8f81702726172f0b52569504fab",
    ("n5", "perm", "csv"): "54134fedb802ffd6b4a26990b108968ee6a7f99b269aafc4b4b5d3d0c3a6673a",
    ("n5", "rd", "json"): "aba60d70503e48397938ea79fb1691f62fee44ab9acde15d22722ddadb545b6f",
    ("n5", "rd", "csv"): "5749dbb4312d149bb734b25bff91961d2f72bb2ef467b64c0b378649a089cb0c",
    ("n5", "prug", "json"): "b24ed2540b52482ca45c5dbb5fc819d58a5d771a785ab78f58022847b98d9f2d",
    ("n5", "prug", "csv"): "fbe6356109d1fc69e1615e4f94abb23877b03fe64da736e4938767422cc9ca2d",
    ("n5", "prugd", "json"): "39d3455728d0a2076633d16bc26e646cec8cb46eb31c27b3b9d0998a3ea8f45d",
    ("n5", "prugd", "csv"): "e9ff1f3e8ef95cca21dc29b19e51a438a5600606f99eec8d041d9fcdeb473f15",
    ("n5", "mix", "json"): "98d07c83170e89ed92229d92c06c82d45cb7d04fd8c8a1f7750ad6a6aa494f38",
    ("n5", "mix", "csv"): "5749dbb4312d149bb734b25bff91961d2f72bb2ef467b64c0b378649a089cb0c",
    ("n50", "perm", "json"): "2b122bd8cf82adcf748ad92c99411c46561e3c22086d07e61c253a6f5ef52518",
    ("n50", "perm", "csv"): "7fd7e0a5ae651593af439629feaa96f60532d0e08e0f11e5ae9d629a49176c64",
    ("n50", "rd", "json"): "fa6c74f88861afe7d3747b285a96f5547d63bea02c00727a6b28a794f18d0a27",
    ("n50", "rd", "csv"): "35fd1410529df11d04c54ddbf1dba5bbc7fbadb0a21ccb367fd57e9fe2485fa1",
    ("n50", "prug", "json"): "a5bd870a1dd447388c3a3949a0aa25df9ec32678b2fd82ae06ff34666bb3913c",
    ("n50", "prug", "csv"): "cc036600112c7a682d9b6e75167bcffc0ee04342061521870d5010d2d5102ead",
    ("n50", "prugd", "json"): "35a06da07a738df392c79e73da6cece165294a626ada395f059c63643fda5b2b",
    ("n50", "prugd", "csv"): "eb70cafd451cf47ac8a6b17a6922423c00018fe394a53e6097a93727537d48d6",
    ("n50", "mix", "json"): "065888a74db3832c3804c32775ce3f1eab32a5996dbddbdb1e7ced03812d758c",
    ("n50", "mix", "csv"): "b8b80741855daefb7621400460f8a3b7973f573d7b4459f180abd00f14de5884",
}


def test_eval_samples_stdout_pinned(capsys, monkeypatch):
    texts = {"n5": ("5; 3,5,1,1,2", "2000"), "n50": (graph_to_text(random_graph(50, 3)), "300")}
    for (graph, mech, fmt), digest in EVAL_SAMPLES_SHA256.items():
        text, samples = texts[graph]
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        code, out, _ = run_cli(
            capsys, "eval", "--mech", mech, "--samples", samples, "--seed", "7", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (graph, mech, fmt)


# sha256 of exact eval stdout, graph on stdin, for every mechanism on
# "5; 3,5,1,1,2" and a fixed total graph at n = 10 and n = 8, and for
# perm and prug on a partial graph, whose output has no ratio: pinned so
# that the exact path and both output formats stay byte-identical
EVAL_EXACT_GRAPHS = {
    "n5": "5; 3,5,1,1,2",
    "n10": "10; 4,3,6,2,9,9,9,7,4,2",
    "n8": "8; 3,6,8,8,8,1,3,1",
    "partial": "5; 3,0,1,1,2",
}
EVAL_EXACT_SHA256 = {
    ("n5", "perm", "json"): "04540e2ef0c5ca304368505caf6795c0ef40d3ab8aab5abc253fd44196cb1dcf",
    ("n5", "perm", "csv"): "2a84ca36d2d1fa1dad06aa5c71d41c76d866105443c6c25b96f7bc62ac79733b",
    ("n5", "rd", "json"): "40e8f1398474d2cf238c941804ab76dc572ba4d1e053fe4c26fdce8ee37e0acc",
    ("n5", "rd", "csv"): "af83ac0cced7e1c93976bd201e909641f96d064973c4d6fdbc909cfbd939f5ce",
    ("n5", "prug", "json"): "9d377b7fc1c46a402bf8d6d9d893cdc0f18195f5e46f6b684aab7db03fbf1f45",
    ("n5", "prug", "csv"): "c3e17221db4fae3ad108185b2d900588906d2273da0cd2ec9a0173ce4b1b6596",
    ("n5", "prugd", "json"): "6e84d64c1df89e288c1caba6ecd6c7e2e49d74ccb2bdb3920c871cb37dd0b8cd",
    ("n5", "prugd", "csv"): "50243d494be2cb809bc753151c834eae293b8b21e2676c09a0cde5bd20ad5370",
    ("n5", "mix", "json"): "fdebf2a1d2628a909cb9d667deb0bcfc30e0bfb5c2121ee16884f3659a46fd9a",
    ("n5", "mix", "csv"): "af83ac0cced7e1c93976bd201e909641f96d064973c4d6fdbc909cfbd939f5ce",
    ("n10", "perm", "json"): "18d39931d6d9c61712bc49b20e4a086b29231af28777ed019d7c92e3de3f1a63",
    ("n10", "perm", "csv"): "61b3fdab4266d5208e5b246ddc9eb6295e94b0a323f97fb0cbdca248c9155a51",
    ("n10", "rd", "json"): "c57523ea743c71bdb2e3194dfc8d26d68fd1e4900f7bfa614d1eebf6509761b8",
    ("n10", "rd", "csv"): "46bb41a6e8d288dc5dfc4f766803d25afa6bd25116f2f4bafc0f1f20f072d2be",
    ("n10", "prug", "json"): "bc0de740fa13ac3162ac0d015129b0e4b17e04ca210c340ba7651cb116aac88e",
    ("n10", "prug", "csv"): "28d19f745c6511697bfbe9f76d3032d7d17b6d5affed60a418f6e736d6b0e737",
    ("n10", "prugd", "json"): "cb73f881f06bdfa1e8542b8303679ea4776fa21c96eb4938dd5a497d9b086439",
    ("n10", "prugd", "csv"): "1e64fedbf60748608696822bfdf452c99b6ee8de839c1fa86e536062493acb08",
    ("n10", "mix", "json"): "51f91db2dcf6aec5f4a88d0d9f69587b832922f014a84a97b11938d4f83df54d",
    ("n10", "mix", "csv"): "50263d37494d56ef0cd142bdb10dd51fb72d63437c6f90b333a043d4cac88160",
    ("n8", "perm", "json"): "80b1de2f4763ec13c7121c3b9b9f954d28836d0c51d106fb349298777dfb146a",
    ("n8", "perm", "csv"): "763f69b7764bf13ae9c60772f84829c9997efaae3a60397f7ebdc81e51814be2",
    ("n8", "rd", "json"): "06102865a544d909ae5c744892981d1deef322264995c811b15be77f2d34670b",
    ("n8", "rd", "csv"): "d4c47df7619453fd207c4c090943eb2a0c87c9422b6a6b98888d2adf968a900a",
    ("n8", "prug", "json"): "fb5beb335bbb5a4dc97547cae242f491871f0d6f3990b46c11bdf5f3d9eb25e8",
    ("n8", "prug", "csv"): "eee9bbb949ba82b794076f1a73b1ffb9eaa36484b5f9c96c2a4576b8ace10f33",
    ("n8", "prugd", "json"): "a3f3112c90b33e9f7bc1cc8df4345f41be34296d639f1a7fc682205ef65eb7ca",
    ("n8", "prugd", "csv"): "85f5f1b5589b9a76c5a8420fc359a43698d886068203c862dfb488f7de96edd9",
    ("n8", "mix", "json"): "599b1292d2e6177f5facba40a7c8ebc645dda60d4dee0839ba212b7a08484df8",
    ("n8", "mix", "csv"): "1666a745e736b0ea1107bbe502a35b68de1edfd8ae240be3d2d0773ffcabc236",
    ("partial", "perm", "json"): "1aa9a09cd6b728623d014c51dca22497b317b5a1bb5aee6dc443263ae6db4abe",
    ("partial", "perm", "csv"): "9e007e4fd1a89a2125771d15fb954ac947cdb7e81e6edef34acf38120fb95b42",
    ("partial", "prug", "json"): "9cc82d0771133754f46ae66c0a444bfb5be9e66b7ee537b702d7d56346937aa4",
    ("partial", "prug", "csv"): "9facf47dd53a497e9275ef2c4b98c81db8906081d3738b05146942339e5c2627",
}


def test_eval_exact_stdout_pinned(capsys, monkeypatch):
    for (graph, mech, fmt), digest in EVAL_EXACT_SHA256.items():
        monkeypatch.setattr("sys.stdin", io.StringIO(EVAL_EXACT_GRAPHS[graph] + "\n"))
        code, out, _ = run_cli(capsys, "eval", "--mech", mech, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (graph, mech, fmt)


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


def test_sweep_capacity_exit_code(capsys):
    # perm's n = 11 impartiality is charged 6389 * 100 * (11 + 2^11) units
    # and its sampled one at n = 16 200 graphs * 225 * (16 + 2^16), no
    # class is generated past n = 12 (which stops the ordering scan
    # behind lemma3 and perm bounds), and the correlation DP stops at DP_CAP
    for argv in (("worst-case", "--mech", "perm", "--n", "13"),
                 ("verify", "bounds", "--mech", "perm", "--n", "13"),
                 ("verify", "lemma3", "--n", "13"),
                 ("verify", "impartial", "--mech", "perm", "--n", "11"),
                 ("verify", "impartial", "--mech", "perm", "--mode", "sampled", "--n", "16", "--seed", "1"),
                 ("worst-case", "--mech", "rd", "--n", "30"),
                 ("verify", "correlation", "--n", "17", "--graphs", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and "capacity" in err, argv
        assert "budget_rows" not in err


def test_impossible_size_exits_capacity_without_traceback(capsys):
    # 8 * 10^14 bytes of targets exceed the address space, so the
    # allocation fails at once instead of filling memory
    code, out, err = run_cli(capsys, "gen", "family=cycle", "n=100000000000000")
    assert (code, out, err) == (3, "", "capacity: out of memory\n")


def test_eval_prugd_has_no_cap_but_mix_keeps_the_scan_cap(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(ub_family(12, 1)) + "\n")
    code, out, _ = run_cli(capsys, "eval", "--mech", "prugd", "--graph", str(path))
    assert code == 0 and json.loads(out)["total"] == "1/1"
    path.write_text(graph_to_text(lower_bound_family(2, 7)) + "\n")  # n = 17
    code, _, err = run_cli(capsys, "eval", "--mech", "mix", "--graph", str(path))
    assert code == 3 and "capacity" in err


def test_mix_past_the_dp_cap_is_named_in_the_capacity_message(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(cycle(17)) + "\n")
    code, out, err = run_cli(capsys, "eval", "--mech", "mix", "--graph", str(path))
    assert (code, out) == (3, "") and "mix" in err and "eval --samples" in err


def test_eval_perm_and_mix_exact_past_the_ordering_table(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(graph_to_text(lower_bound_family(2, 5)) + "\n")  # n = 13
    for mech in ("perm", "mix"):
        code, out, _ = run_cli(capsys, "eval", "--mech", mech, "--graph", str(path))
        assert code == 0 and json.loads(out)["total"] == "1/1", mech


def test_unexpected_exception_exits_internal(capsys, monkeypatch, tmp_path):
    def broken_kernel(out0s):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr(engine, "batch_selection_counts", broken_kernel)
    path = tmp_path / "g.txt"
    path.write_text("3; 2,3,1\n")
    code, out, err = run_cli(capsys, "eval", "--mech", "perm", "--graph", str(path))
    assert code == 4 and out == ""
    assert "internal error: RuntimeError" in err and "kernel fault" in err


def test_closed_stdout_exits_141_quietly():
    # the reader closes its end before the command writes, as `| head`
    # does once it has its lines: no bug, so no traceback
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "impartial.cli", "figure3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "internal error" not in err and "BrokenPipeError" not in err, err


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


@pytest.mark.parametrize("argv", [("correlation", "--n", "5", "--graphs", "2"),
                                  ("ub-chain", "--mech", "rd", "--n", "6"), ("tightness",)])
def test_jobs_above_one_usage_where_the_check_does_not_split(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv, "--jobs", "2")
    assert code == 2 and out == ""
    assert "only verify bounds|lemma3|impartial split" in err, err
    code, out, _ = run_cli(capsys, "verify", *argv, "--jobs", "1")
    assert code == 0 and json.loads(out)["config"]["jobs"] == 1


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


@pytest.mark.parametrize("nprimes", ["3,1", "2,2"])
def test_verify_tightness_unordered_nprimes_usage(capsys, nprimes):
    # rows are compared in the order given, so n' must increase
    code, out, err = run_cli(capsys, "verify", "tightness", "--nprimes", nprimes)
    assert code == 2 and out == "" and "increasing" in err


def test_eval_exact_and_samples_usage(capsys):
    code, err = usage_exit(
        capsys, "eval", "--mech", "rd", "--exact", "--samples", "10", "--seed", "1"
    )
    assert code == 2 and "not allowed with" in err


def test_verify_ub_chain_passes_the_seed(capsys, monkeypatch):
    seen = []
    real = analysis.verify_upper_bound_chain

    def spy(mechanism, n, seed=0):
        seen.append(seed)
        return real(mechanism, n, seed=seed)

    monkeypatch.setattr(analysis, "verify_upper_bound_chain", spy)
    for argv, env in (((), None), (("--seed", "5"), None), ((), "9")):
        if env is None:
            monkeypatch.delenv("IMPARTIAL_SEED", raising=False)
        else:
            monkeypatch.setenv("IMPARTIAL_SEED", env)
        code, _, _ = run_cli(capsys, "verify", "ub-chain", "--mech", "rd", "--n", "6", *argv)
        assert code == 0
    assert seen == [0, 5, 9]


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


def test_verify_impartial_jobs_leave_the_report_unchanged(capsys):
    # the windows go to a real spawn pool with --jobs 2; only the echoed
    # configuration differs
    for argv in (("--n", "6"), ("--mode", "sampled", "--n", "7", "--samples", "20", "--seed", "1")):
        reports = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(capsys, "verify", "impartial", "--mech", "perm", *argv, "--jobs", jobs)
            payload = json.loads(out)
            assert code == 0 and payload["config"].pop("jobs") == int(jobs)
            reports.append(payload)
        assert reports[0] == reports[1], argv


def test_verify_bounds_rd(capsys):
    code, out, _ = run_cli(capsys, "verify", "bounds", "--mech", "rd", "--n", "4")
    payload = json.loads(out)
    assert code == 0 and payload["min_ratio"] == "3/4"


def test_verify_bounds_prugd_n6(capsys):
    # the sweep holds cycles (max indegree 1), where the floor is 1
    code, out, _ = run_cli(capsys, "verify", "bounds", "--mech", "prugd", "--n", "6")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    assert payload["graphs_checked"] == 15625


def test_verify_bounds_rd_large_n_usage(capsys):
    code, _, err = run_cli(capsys, "verify", "bounds", "--mech", "rd", "--n", "6")
    assert code == 2 and "n <= 5" in err


def test_verify_correlation(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "correlation", "--n", "6", "--graphs", "10", "--seed", "1"
    )
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and payload["graphs_checked"] == 11


# sha256 of verify correlation stdout at n = 7 on the example graph and
# 20 seeded graphs, pinned so that the report stays byte-identical; the
# counts behind it are checked against _oracles.correlation_histogram
VERIFY_CORRELATION_SHA256 = "4eabfdf18826eba1d9499c1a207b42c3edf037099bb0653b659d35c04ed9bf2f"


def test_verify_correlation_stdout_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "correlation", "--n", "7", "--graphs", "20", "--seed", "1"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_CORRELATION_SHA256


def test_verify_ub_chain_perm(capsys):
    code, out, _ = run_cli(capsys, "verify", "ub-chain", "--mech", "perm", "--n", "6")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert payload["min_family_ratio"] == "163/240"
    assert payload["bound"] == "35/48"


def test_verify_ub_chain_defaults_to_n_6(capsys):
    # the chain starts at n = 6, so a bare ub-chain runs there; every
    # other check keeps --n 5
    bare = run_cli(capsys, "verify", "ub-chain", "--mech", "perm")
    assert bare == run_cli(capsys, "verify", "ub-chain", "--mech", "perm", "--n", "6")
    assert bare[0] == 0 and json.loads(bare[1])["config"]["n"] == 6
    assert run_cli(capsys, "verify", "lemma3") == run_cli(capsys, "verify", "lemma3", "--n", "5")


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
    monkeypatch.setattr(engine, "_left_max_step", oracle.late_takeover_step)
    for n, runs, violations in ((3, 8 * 6, 24), (4, 81 * 24, 504), (5, 1024 * 120, 19200)):
        code, out, _ = run_cli(capsys, "verify", "lemma3", "--n", str(n))
        payload = json.loads(out)
        assert code == 1 and not payload["passed"]
        assert payload["orderings_run"] == runs
        assert payload["left_max_violations"] == violations  # the labelled count


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


def _run_any(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_gives_each_command_what_a_fresh_one_does(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("5; 3,5,1,1,2\n")
    commands = [
        ("eval", "--mech", "prug", "--graph", str(path), "--samples", "50", "--seed", "3"),
        ("eval", "--mech", "prug", "--graph", str(path)),
        ("eval", "--mech", "prug", "--graph", str(path), "--samples", "0"),
        ("verify", "tightness"),
    ]
    reused = [_run_any(capsys, argv) for argv in commands]
    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_run_any(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    config = json.loads(reused[1][1])["config"]
    assert "samples" not in config and "seed" not in config, config


def test_a_handler_replaced_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    assert run_cli(capsys, "figure3", "--delta-max", "2")[0] == 0
    seen = []

    def handler(args):
        seen.append(args.mech)
        return 0

    monkeypatch.setattr(cli, "_cmd_eval", handler)
    assert run_cli(capsys, "eval", "--mech", "rd") == (0, "", "")
    assert seen == ["rd"]


def test_the_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (("figure3",), ("gen", "family=cycle", "n=3"), ("eval",), ("figure3", "--format", "json")):
        _run_any(capsys, argv)
    assert len(built) == 1 and cli._parser is built[0]


def test_start_up_loads_no_csv_traceback_or_dataclass():
    # a fresh process pays for every module and class it builds at
    # import: csv and traceback load only where they are used, and the
    # records of analysis and mechanisms generate no dataclass code
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        "import sys, impartial.cli, impartial.mechanisms\n"
        "from impartial import analysis, mechanisms\n"
        "print(sorted({'csv', 'traceback'} & set(sys.modules)))\n"
        "print(sorted(name for m in (analysis, mechanisms) for name, c in vars(m).items()\n"
        "             if isinstance(c, type) and c.__module__ == m.__name__\n"
        "             and hasattr(c, '__dataclass_fields__')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


# ---------------------------------------------------------------------------
# fuzzing: bounded argv, n <= 5, at most 50 draws, block counts <= 3

def _mostly(valid, invalid):
    """Strings drawn from valid three times as often as from invalid."""
    return st.sampled_from([str(v) for v in valid] * 3 + [str(v) for v in invalid])


_N = _mostly(range(2, 6), (1, -1, "x"))
_MECH = _mostly(sorted(MECHANISMS), ("nope",))
_JOBS = _mostly((1,), (0,))
_SAMPLES = _mostly(range(1, 51, 7), (0, -3))
_SEED = _mostly(range(3), ("x",))
_GRAPH_TEXTS = ("3; 2,3,1", "4; 2,1,1,3", "5; 3,5,1,1,2", "5; 2,3,4,5,1", "3; 2,0,1",
                "2; 2,1", "3; 1,2,3", "3; 2,1", "x", "", "2; 2,1\n2; 2,1")
_FAMILIES = ("family=cycle n=5", "family=c2n n=4", "family=lb delta=2 nprime=1",
             "family=lb delta=3 nprime=1", "family=ub n=5 i=1", "family=ub_prime n=5 i=0",
             "family=random n=5 seed=7", "family=cycle n=1", "family=lb delta=1 nprime=1",
             "family=nope n=3", "family=cycle", "family=cycle n=x", "n=3", "junk")
# (flag, values, required); values None marks a switch
_OPTIONS = {
    "gen": [("--format", st.sampled_from(["text", "json", "csv"]), False)],
    "eval": [
        ("--mech", _MECH, True),
        ("--samples", _SAMPLES, False),
        ("--seed", _SEED, False),
        ("--format", st.sampled_from(["json", "csv"]), False),
        ("--exact", None, False),
    ],
    "verify": [
        ("--mech", _MECH, False),
        ("--n", _N, False),
        ("--mode", st.sampled_from(["exhaustive", "sampled"]), False),
        ("--seed", _SEED, False),
        ("--samples", _SAMPLES, False),
        ("--graphs", _mostly(range(6), (-1,)), False),
        ("--delta", _mostly(range(2, 5), (-1, 0, 1)), False),
        ("--nprimes", _mostly(("1", "1,2", "1,2,3", "3"), ("2,1", "0", "1,x", "")), False),
        ("--jobs", _JOBS, False),
    ],
    "figure3": [
        ("--delta-max", _mostly(range(2, 21, 3), (-1, 1)), False),
        ("--format", st.sampled_from(["csv", "json"]), False),
    ],
    "worst-case": [("--mech", _MECH, True), ("--n", _N, True), ("--jobs", _JOBS, False)],
}
_CHECKS = ("impartial", "bounds", "correlation", "ub-chain", "tightness", "lemma3")


@st.composite
def bounded_argv(draw):
    cmd = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [cmd]
    if cmd == "gen":
        argv += draw(st.sampled_from(_FAMILIES)).split()
    if cmd == "verify":
        argv.append(draw(_mostly(_CHECKS, ("nope",))))
    if cmd == "eval":
        argv += ["--graph", draw(_mostly(["graph.txt"], ["missing.txt"]))]
    for flag, values, required in _OPTIONS[cmd]:
        if required or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv, draw(st.sampled_from(_GRAPH_TEXTS))


@settings(max_examples=150, deadline=None)
@given(bounded_argv())
def test_cli_fuzz_never_exits_internal(case):
    argv, graph_text = case
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "graph.txt").write_text(graph_text + "\n")
        argv = [str(Path(tmp) / a) if a.endswith(".txt") else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, graph_text, err.getvalue())
