"""Command-line surface: formats, determinism, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rauzylab
from rauzylab import cohomology, fibonacci_rule, legal_subwords, oracle
from rauzylab.cli import main
from rauzylab.words import WordSet

census_module = importlib.import_module("rauzylab.complexity")  # the package exports a function of that name

#: sha256 of the stdout of ``verify --rule fib --max-n 8``, pinned from the
#: release before the stage tower
VERIFY_FIB_8_SHA256 = "1d6ef441ec6dc77d9b386c64ca90a44d74a1a95639e57dd95087bab48f197de0"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complexity_csv(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--max-n", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,p,s,sb,wb,rs,ls"
    assert lines[1] == "1,2,2,1,0,2,2"
    assert lines[2] == "2,4,3,3,0,3,3"
    assert lines[3] == "3,7,6,3,0,6,6"
    assert lines[4] == "4,13,9,8,0,9,9"


def test_complexity_json(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--max-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "fib"
    assert [row["p"] for row in payload["rows"]] == [2, 4, 7]
    assert [row["s"] for row in payload["rows"]] == [2, 3, 6]


def test_language_csv_and_words(capsys):
    code, out, _ = run_cli(capsys, "language", "--max-len", "2", "--words")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,p,words"
    assert lines[1] == "1,2,a;b"
    assert lines[2] == "2,4,aa;ab;ba;bb"


def test_language_json(capsys):
    code, out, _ = run_cli(capsys, "language", "--max-len", "3", "--format", "json")
    payload = json.loads(out)
    assert [row["p"] for row in payload["rows"]] == [2, 4, 7]


def test_graph_dot_stdout(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "1")
    assert code == 0
    assert out.count("->") == 4
    assert '"a"' in out and '"b"' in out


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["n"] == 2
    assert len(payload["vertices"]) == 4
    assert len(payload["edges"]) == 7
    for edge in payload["edges"]:
        assert set(edge) == {"word", "tail", "head"}


def test_graph_dot_file(capsys, tmp_path):
    target = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "graph", "--n", "3", "--dot", str(target), "--highlight-specials")
    assert code == 0
    text = target.read_text()
    assert text.count("->") == 13
    assert "fillcolor" in text


def test_cohomology_csv(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--max-n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,vertices,edges,h1_rank,s_plus_1,injective,h0_quotient,h1_quotient"
    assert lines[1] == "1,2,4,3,3,true,0,1"
    assert lines[2] == "2,4,7,4,4,true,0,3"
    assert lines[3] == "3,7,13,7,7,true,0,3"


def test_verify_small_fib(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "p(1..3) = (2, 4, 7)" in out
    assert "s(1..3) = (2, 3, 6)" in out
    assert "OK: 0 failing" in out
    assert "fail" not in out.replace("failing", "")


def test_verify_noble_skips_rule_specific_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rule", "noble:2", "--max-n", "4")
    assert code == 0
    assert "skip" in out
    assert "rule-specific" in out


def test_sample_one_round(capsys):
    code, out, _ = run_cli(capsys, "sample", "--k", "1", "--seed", "0")
    assert code == 0
    assert out.strip() == "a"


def test_sample_long_word_all_factors_legal(capsys):
    code, out, _ = run_cli(capsys, "sample", "--k", "12", "--seed", "3", "--check-len", "6")
    assert code == 0
    word = out.strip()
    assert len(word) == 233
    assert set(word) == {"a", "b"}


def test_sample_different_seeds_differ(capsys):
    _, first, _ = run_cli(capsys, "sample", "--k", "6", "--seed", "0")
    _, second, _ = run_cli(capsys, "sample", "--k", "6", "--seed", "1")
    assert first != second


def test_sample_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["sample", "--k", "1"])


def test_report_files_and_determinism(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "report", "--max-n", "3", "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "report", "--max-n", "3", "--out", str(out_b))[0] == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["cohomology.csv", "complexity.csv", "rauzy_1.dot", "rauzy_2.dot", "rauzy_3.dot"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_report_env_override(capsys, tmp_path, monkeypatch):
    preferred = tmp_path / "env_dir"
    monkeypatch.setenv("RAUZYLAB_OUT", str(preferred))
    code, out, _ = run_cli(capsys, "report", "--max-n", "2", "--out", str(tmp_path / "flag_dir"))
    assert code == 0
    assert (preferred / "complexity.csv").exists()
    assert not (tmp_path / "flag_dir").exists()


def test_report_json_single_object(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "report", "--max-n", "2", "--format", "json", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["max_n"] == 2
    assert set(payload) == {"rule", "max_n", "complexity", "cohomology", "graphs"}


def test_rule_file_loading(capsys, tmp_path):
    payload = {
        "alphabet": ["a", "b"],
        "rules": {"a": [["b", "a"], ["a", "b"]], "b": [["a"]]},
        "probabilities": {"a": ["1/2", "1/2"], "b": ["1"]},
    }
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "complexity", "--rule-file", str(path), "--max-n", "3")
    assert code == 0
    assert out.splitlines()[3] == "3,7,6,3,0,6,6"


def test_non_primitive_rule_file_fails_cleanly(capsys, tmp_path):
    # c is never produced by a or b: no power of the incidence matrix is
    # positive, so there is no p(n) to print
    payload = {
        "alphabet": ["a", "b", "c"],
        "rules": {"a": [["a", "b"], ["b", "a"]], "b": [["a"]], "c": [["c", "a"]]},
    }
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "complexity", "--rule-file", str(path), "--max-n", "4")
    assert code == 1
    assert out == ""
    assert "not primitive" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["graph", "--n", "0"], "--n"),
        (["language", "--max-len", "0"], "--max-len"),
        (["verify", "--max-n", "0"], "--max-n"),
    ],
)
def test_nonpositive_size_names_its_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be >= 1\n"


def test_unknown_rule_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "complexity", "--rule", "nope")
    assert code == 1
    assert "error" in err


def test_cohomology_invariant_failure_exits_nonzero(capsys, monkeypatch):
    from rauzylab import InvariantViolationError
    from rauzylab import cohomology

    def broken_stage(rule, proj, source_connected, target_connected):
        raise InvariantViolationError("stage 1: synthetic failure")

    monkeypatch.setattr(cohomology, "_stage_report", broken_stage)
    code, _, err = run_cli(capsys, "cohomology", "--max-n", "2")
    assert code == 1
    assert "synthetic failure" in err


def test_verify_builds_each_stage_fact_once(capsys, monkeypatch):
    sorts, graphs, checks, censuses = Counter(), Counter(), Counter(), Counter()
    from_iterable = WordSet.from_iterable.__func__
    build, connected, tables = cohomology.build_rauzy, cohomology.strongly_connected, census_module._extension_tables

    def counted_sort(cls, items):
        word_set = from_iterable(cls, items)
        sorts[word_set.words] += 1
        return word_set

    def counted_build(rule, n):
        graphs[n] += 1
        return build(rule, n)

    def counted_check(g):
        checks[g.n] += 1
        return connected(g)

    def counted_tables(rule, n):
        censuses[n] += 1
        return tables(rule, n)

    monkeypatch.setattr(WordSet, "from_iterable", classmethod(counted_sort))
    monkeypatch.setattr(cohomology, "build_rauzy", counted_build)
    monkeypatch.setattr(cohomology, "strongly_connected", counted_check)
    monkeypatch.setattr(census_module, "_extension_tables", counted_tables)
    oracle._legal_subword_set.cache_clear()  # so that every F_m is built, and sorted, in this run
    code, out, _ = run_cli(capsys, "verify", "--rule", "fib", "--max-n", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FIB_8_SHA256
    assert out.endswith("OK: 0 failing check(s) out of 77\n")
    # F_1..F_13: the census and graphs read F_1..F_10, the identity at stage 7 reads F_13
    languages = [legal_subwords(fibonacci_rule(), m).words for m in range(1, 14)]
    assert all(sorts[words] == 1 for words in languages[1:])
    # F_1 equals the stage-1 specials sets, so the total pins it: beyond one
    # sort per F_m, only the census's three specials sets per stage are sorted
    assert sum(sorts.values()) == len(languages) + 3 * 8
    assert graphs == checks == Counter(range(1, 10))
    assert censuses == Counter(range(1, 9))


def test_outputs_do_not_depend_on_hash_seed():
    # set iteration order varies with PYTHONHASHSEED; no output may
    src = str(Path(rauzylab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "RAUZYLAB_OUT"}
    for argv in (
        ["verify", "--max-n", "9"],
        ["complexity", "--max-n", "10"],
        ["cohomology", "--max-n", "8", "--format", "json"],
    ):
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "rauzylab.cli", *argv],
                env={**env, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                check=True,
                timeout=300,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1], argv
        assert outputs[0], argv
