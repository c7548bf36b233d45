"""Command-line surface: formats, determinism, exit codes."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import rauzylab
from rauzylab import cli, cohomology, fibonacci_rule, legal_subwords, oracle, rauzy
from rauzylab.cli import main
from rauzylab.words import WordSet

from conftest import FIB_ROWS_18, THREE_LETTER, THUE_MORSE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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


def test_malformed_rule_file_fails_cleanly(capsys, tmp_path):
    payload = {"alphabet": ["a", "b"], "rules": {"a": [["b", "a"], ["a", "b"]]}}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "complexity", "--rule-file", str(path), "--max-n", "3")
    assert (code, out, err) == (1, "", "error: rules has no entry for letter 'b'\n")


def test_verify_rule_without_desubstitution_depth(capsys, tmp_path):
    # a -> ab|b, b -> a has a 1-letter chain at every power, so no bound on
    # the depth of same-length preimages; the path check ends the search
    payload = {"alphabet": ["a", "b"], "rules": {"a": [["a", "b"], ["b"]], "b": [["a"]]}}
    path = tmp_path / "no-depth.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--rule-file", str(path), "--max-n", "6")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "OK: 0 failing check(s) out of 57"


@pytest.mark.parametrize(
    "argv",
    [["language", "--max-len", "3"], ["verify", "--max-n", "3"], ["complexity", "--max-n", "3"]],
)
def test_non_expanding_rule_fails_cleanly(capsys, tmp_path, argv):
    # every realization is one letter, so no legal word has two letters
    payload = {"alphabet": ["a", "b"], "rules": {"a": [["a"], ["b"]], "b": [["a"], ["b"]]}}
    path = tmp_path / "one-letter.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, "--rule-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: rule 'one-letter' is not expanding: every realization is one letter")


def test_bad_probability_in_rule_file_fails_cleanly(capsys, tmp_path):
    payload = {
        "alphabet": ["a", "b"],
        "rules": {"a": [["b", "a"], ["a", "b"]], "b": [["a"]]},
        "probabilities": {"a": [None, "1"], "b": ["1"]},
    }
    path = tmp_path / "null.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "sample", "--rule-file", str(path), "--k", "3", "--seed", "1")
    assert (code, out, err) == (1, "", "error: probability None of letter 'a' is not a number or a rational string\n")
    # 1e400 parses as an infinite float, on which Fraction raised OverflowError
    path.write_text(json.dumps(payload).replace("null", "1e400"))
    code, out, err = run_cli(capsys, "sample", "--rule-file", str(path), "--k", "3", "--seed", "1")
    assert (code, out, err) == (1, "", "error: probability inf of letter 'a' is not a finite rational number\n")


def test_sample_rejects_negative_check_len(capsys):
    code, out, err = run_cli(capsys, "sample", "--k", "3", "--seed", "1", "--check-len", "-2")
    assert (code, out, err) == (1, "", "error: --check-len must be >= 0\n")


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


@pytest.mark.parametrize("m", [sys.maxsize, 99999999999999999999], ids=["maxsize", "twenty-digits"])
def test_oversized_noble_parameter_fails_cleanly(capsys, m):
    code, out, err = run_cli(capsys, "complexity", "--rule", f"noble:{m}", "--max-n", "1")
    assert (code, out, err) == (1, "", f"error: noble means parameter m must be at most {sys.maxsize - 1}\n")


def _benchmark_workloads():
    """WORKLOADS and OUTPUT_DIR of perfbench/run.py, read without running it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS, run.OUTPUT_DIR


@pytest.mark.parametrize("workload", sorted(json.loads((PERFBENCH / "golden.json").read_text())))
def test_benchmark_workload_matches_golden(capsys, monkeypatch, tmp_path, workload):
    # the benchmark refuses any change to these outputs; pin them here too
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    workloads, output_dir = _benchmark_workloads()
    monkeypatch.delenv("RAUZYLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *workloads[workload])
    assert code == golden["code"]
    assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]
    written = tmp_path / output_dir.get(workload, "no-output")
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(written.glob("*"))}
    assert files == golden["files"]


def test_cohomology_invariant_failure_exits_nonzero(capsys, monkeypatch):
    from rauzylab import InvariantViolationError
    from rauzylab import cohomology

    def broken_stage(stage):
        raise InvariantViolationError("stage 1: synthetic failure")

    monkeypatch.setattr(cohomology.Stage, "report", broken_stage)
    code, _, err = run_cli(capsys, "cohomology", "--max-n", "2")
    assert code == 1
    assert "synthetic failure" in err


def test_verify_builds_each_stage_fact_once(capsys, monkeypatch, tmp_path):
    sorts, graphs, sweeps, censuses, steps = Counter(), Counter(), Counter(), Counter(), Counter()
    sort = WordSet.__dict__["words"].func
    build, connected, census = rauzy.build_rauzy, cohomology.words_connected, cohomology.specials_report
    step = oracle._corner_step

    def counted_sort(word_set):
        words = sort(word_set)
        sorts[words] += 1
        return words

    def counted_build(rule, n):
        graphs[n] += 1
        return build(rule, n)

    def counted_sweep(alphabet, words, longer):
        sweeps[len(next(iter(words)))] += 1
        return connected(alphabet, words, longer)

    def counted_step(rule, built):
        steps[len(built)] += 1  # keyed by the F_m it builds
        return step(rule, built)

    def counted_census(rule, n):
        censuses[n] += 1
        return census(rule, n)

    counted_words = cached_property(counted_sort)
    counted_words.__set_name__(WordSet, "words")
    monkeypatch.setattr(WordSet, "words", counted_words)
    for module in (rauzy, cli):
        monkeypatch.setattr(module, "build_rauzy", counted_build)
    monkeypatch.setattr(cohomology, "words_connected", counted_sweep)
    monkeypatch.setattr(cohomology, "specials_report", counted_census)
    monkeypatch.setattr(oracle, "_corner_step", counted_step)
    monkeypatch.delenv("RAUZYLAB_OUT", raising=False)
    oracle._legal_subword_set.cache_clear()  # so that every F_m is built in this run
    code, out, _ = run_cli(capsys, "verify", "--rule", "fib", "--max-n", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FIB_8_SHA256
    assert out.endswith("OK: 0 failing check(s) out of 77\n")
    # no word set's order is read, so nothing is sorted, and no graph is built;
    # one stage graph is swept, the deepest, stage 9 as stage 8's source: its
    # connectivity passes down the letter-drop map to every stage below
    assert sorts == Counter()
    assert graphs == Counter()
    assert sweeps == Counter([9])
    assert censuses == Counter(range(1, 9))
    # the corner step is the only pass over the words of each length, and it
    # runs once for each F_m with m >= 2: F_2..F_10 for the stages, whose
    # censuses and cochain reports it tallies, and on to F_13 = F_{f_7} for
    # the generation-window identity at n = 7
    assert steps == Counter(range(2, 14))
    # report's DOT files list F_1..F_4 in order: each is sorted once, from the cache
    assert run_cli(capsys, "report", "--max-n", "3", "--out", str(tmp_path))[0] == 0
    assert graphs == Counter(range(1, 4))
    sorted_by_report = Counter(sorts)  # reading the cached orders below sorts nothing more
    assert sorted_by_report == Counter(legal_subwords(fibonacci_rule(), m).words for m in range(1, 5))
    # complexity builds each F_m once, F_2..F_10 for the censuses of F_1..F_8,
    # and reads each census from the corner step that built F_{n+2}: the
    # complexity module sees only the sizes of the word sets, so a census that
    # walked F_n, or looked a word up in F_{n+1} or F_{n+2}, would fail
    steps.clear()
    censuses.clear()
    oracle._legal_subword_set.cache_clear()
    monkeypatch.setattr(sys.modules["rauzylab.complexity"], "legal_subwords", SizeOnly)
    code, out, _ = run_cli(capsys, "complexity", "--max-n", "8")
    assert code == 0
    assert out.splitlines()[1:] == [",".join(map(str, row)) for row in FIB_ROWS_18[:8]]
    assert censuses == Counter(range(1, 9))
    assert steps == Counter(range(2, 11))


#: exit code, failing rows and stdout sha256 of ``verify --rule-file RULE.json --max-n 8``, pinned
#: while the cochain rows came from a union-find over F_{n+2}, before they read the census
FAILING_VERIFY_8 = {
    "three-letter": (1, 28, "2dc45224d0f25b4579a27ea130563cd9cd5f2bc20f3a92bdf0347923668460fc"),
    "thue-morse": (1, 8, "cb523d523c871a66e55091cac43173285dc6b0911506ca2a7a51b59f638873af"),
}


@pytest.mark.parametrize("rule", [THREE_LETTER, THUE_MORSE], ids=lambda rule: rule.name)
def test_verify_keeps_failing_rules_failing(capsys, tmp_path, rule):
    # the cochain rows read the same census as sb and wb; a rule whose tower
    # facts fail must still fail the same rows, row for row
    path = tmp_path / f"{rule.name}.json"
    spec = {"alphabet": list(rule.alphabet), "rules": {a: [list(r) for r in rs] for a, rs in rule.rules}}
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "verify", "--rule-file", str(path), "--max-n", "8")
    failing = sum(line.endswith(" fail") for line in out.splitlines())
    assert (code, failing, hashlib.sha256(out.encode()).hexdigest()) == FAILING_VERIFY_8[rule.name]


class SizeOnly:
    """Stands in for ``legal_subwords(rule, m)``: the size of F_m, and nothing else of it."""

    def __init__(self, rule, m):
        self.size = len(legal_subwords(rule, m))

    def __len__(self):
        return self.size


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    # set iteration order varies with PYTHONHASHSEED; no output may, and no
    # file that report writes either
    src = str(Path(rauzylab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "RAUZYLAB_OUT"}
    for argv in (
        ["verify", "--max-n", "9"],
        ["complexity", "--max-n", "10"],
        ["cohomology", "--max-n", "8", "--format", "json"],
        ["report", "--max-n", "8", "--format", "json", "--out", "out"],
    ):
        outputs = []
        for seed in ("0", "1"):
            cwd = tmp_path / argv[0] / seed
            cwd.mkdir(parents=True)
            stdout = subprocess.run(
                [sys.executable, "-m", "rauzylab.cli", *argv],
                env={**env, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                cwd=cwd,
                capture_output=True,
                check=True,
                timeout=300,
            ).stdout
            outputs.append([stdout] + [f.read_bytes() for f in sorted(cwd.rglob("*")) if f.is_file()])
        assert outputs[0] == outputs[1], argv
        assert outputs[0][0] and len(outputs[0]) == (2 if argv[0] == "report" else 1), argv


def test_deep_record_rows_match_the_cli(capsys):
    # DEEP.json, written by tools/deep_record.py, holds the complexity and
    # cohomology rows at the deepest --max-n it reached; its rows for n <= 16
    # must be the CLI's own
    deep = json.loads((Path(__file__).resolve().parent.parent / "DEEP.json").read_text())
    assert all(run["exit"] == 0 for run in deep["runs"] if run["n"] <= deep["deepest"])
    for command in ("complexity", "cohomology"):
        assert [row["n"] for row in deep[command]] == list(range(1, deep["deepest"] + 1))
        code, out, _ = run_cli(capsys, command, "--rule", "fib", "--max-n", "16", "--format", "json")
        assert code == 0
        assert deep[command][:16] == json.loads(out)["rows"]
