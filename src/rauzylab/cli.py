"""Command-line entry point.

Subcommands: verify, report, complexity, graph, cohomology, language,
sample.  All outputs are deterministic functions of the configuration
(including the seed), with comma-separated CSV, LF line endings and
sorted-key JSON, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .cohomology import CohomologyReport, stage_tower
from .complexity import SpecialsReport, complexity, first_difference
from .errors import InvariantViolationError, RauzyLabError
from .oracle import legal_subwords, verify_fibonacci_identity
from .rauzy import build_rauzy, export_dot
from .rules import (
    RandomSubstitution,
    has_fibonacci_support,
    resolve_rule,
    rule_from_file,
    sample_inflation,
)

#: largest stage at which cmd_verify checks the generation-window identity;
#: the windows no longer need A_{n+1} enumerated (stage 8 takes about 1 s),
#: but the stages past this cap print a skip row, so raising it changes
#: the output and belongs in a change of its own
IDENTITY_CHECK_MAX = 7


def _load_rule(args: argparse.Namespace, bound: int = 1, flag: str = "--max-n") -> RandomSubstitution:
    """The rule of ``--rule-file`` or ``--rule``; then ``bound``, the value of ``flag``, must be >= 1."""
    rule = rule_from_file(args.rule_file) if args.rule_file else resolve_rule(args.rule)
    if bound < 1:
        raise ValueError(f"{flag} must be >= 1")
    return rule


def _csv(lines: list[list[object]]) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _complexity_row(rep: SpecialsReport) -> dict:
    return {"n": rep.n, "p": rep.p, "s": rep.s, "sb": rep.strong_count, "wb": rep.weak_count,
            "rs": len(rep.right_specials), "ls": len(rep.left_specials)}


def _complexity_csv(rows: list[dict]) -> str:
    header = ["n", "p", "s", "sb", "wb", "rs", "ls"]
    return _csv([header] + [[row[k] for k in header] for row in rows])


def _cohomology_row(rep: CohomologyReport) -> dict:
    return {"n": rep.n, "vertices": rep.vertices, "edges": rep.edges, "h1_rank": rep.h1_rank,
            "s_plus_1": rep.s_plus_1, "injective": rep.induced_injective,
            "h0_quotient": rep.h0_quotient_dim, "h1_quotient": rep.h1_quotient_dim}


def _cohomology_csv(rows: list[dict]) -> str:
    header = ["n", "vertices", "edges", "h1_rank", "s_plus_1", "injective", "h0_quotient", "h1_quotient"]
    body = [[str(row[k]).lower() if k == "injective" else row[k] for k in header] for row in rows]
    return _csv([header] + body)


def cmd_language(args: argparse.Namespace) -> int:
    rule = _load_rule(args, args.max_len, "--max-len")
    rows = []
    for m in range(1, args.max_len + 1):
        words = legal_subwords(rule, m)
        row: dict = {"m": m, "p": len(words)}
        if args.words:
            row["words"] = list(words)
        rows.append(row)
    if args.format == "json":
        print(_json({"rule": rule.name, "max_len": args.max_len, "rows": rows}), end="")
    else:
        table = [["m", "p", "words"]] if args.words else [["m", "p"]]
        for row in rows:
            line = [row["m"], row["p"]]
            if args.words:
                line.append(";".join(row["words"]))
            table.append(line)
        print(_csv(table), end="")
    return 0


def cmd_complexity(args: argparse.Namespace) -> int:
    rule = _load_rule(args, args.max_n)
    rows = [_complexity_row(stage.census()) for stage in stage_tower(rule, args.max_n)]
    if args.format == "json":
        print(_json({"rule": rule.name, "rows": rows}), end="")
    else:
        print(_complexity_csv(rows), end="")
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    g = build_rauzy(_load_rule(args, args.n, "--n"), args.n)
    if args.format == "json":
        payload = {
            "n": g.n,
            "vertices": list(g.vertices),
            "edges": [{"word": e.word, "tail": e.tail, "head": e.head} for e in g.edges],
        }
        print(_json(payload), end="")
        return 0
    dot = export_dot(g, highlight_specials=args.highlight_specials)
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8", newline="\n")
    else:
        print(dot, end="")
    return 0


def cmd_cohomology(args: argparse.Namespace) -> int:
    rule = _load_rule(args, args.max_n)
    try:
        rows = [_cohomology_row(stage.report()) for stage in stage_tower(rule, args.max_n)]
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(_json({"rule": rule.name, "rows": rows}), end="")
    else:
        print(_cohomology_csv(rows), end="")
    return 0


def _verify_checks(rule: RandomSubstitution, max_n: int):
    """Yield (stage, check name, outcome) rows; outcome in pass/fail/skip."""
    fib_like = has_fibonacci_support(rule)
    for stage in stage_tower(rule, max_n):
        n = stage.n
        if fib_like and 4 <= n <= IDENTITY_CHECK_MAX:
            yield n, "fibonacci_identity", "pass" if verify_fibonacci_identity(rule, n).equal else "fail"
        elif n >= 4:
            reason = "rule-specific" if not fib_like else "generation set too large"
            yield n, f"fibonacci_identity ({reason})", "skip"
        yield n, "strong_connectivity", "pass" if stage.connected else "fail"
        try:
            rep = stage.census()
            counts_ok = rep.p + len(rep.right_specials) == complexity(rule, n + 1)
            yield n, "specials_census", "pass" if counts_ok else "fail"
        except InvariantViolationError:
            yield n, "specials_census", "fail"
            continue
        yield n, "bispecial_identity", "pass" if rep.bispecial_identity else "fail"
        yield n, "no_weak_bispecials", "pass" if rep.no_weak_bispecials else "fail"
        try:
            coh = stage.report()
        except InvariantViolationError:
            yield n, "cochain_suite", "fail"
            continue
        yield n, "h1_rank_equals_s_plus_1", "pass" if coh.h1_rank == coh.s_plus_1 else "fail"
        yield n, "pullback_full_column_rank", "pass" if coh.pullback_injective_on_cochains else "fail"
        yield n, "induced_h1_injective", "pass" if coh.induced_injective else "fail"
        yield n, "h0_quotient_zero", "pass" if coh.h0_quotient_dim == 0 else "fail"
        expected_jump = rep.strong_count - rep.weak_count
        yield n, "h1_quotient_matches_bispecials", "pass" if coh.h1_quotient_dim == expected_jump else "fail"


def cmd_verify(args: argparse.Namespace) -> int:
    rule = _load_rule(args, args.max_n)
    rows = list(_verify_checks(rule, args.max_n))
    width = max(len(name) for _, name, _ in rows) + 2
    print(f"rule: {rule.name}")
    p_values = [complexity(rule, n) for n in range(1, min(args.max_n, 3) + 1)]
    s_values = [first_difference(rule, n) for n in range(1, min(args.max_n, 3) + 1)]
    print(f"p(1..{len(p_values)}) = {tuple(p_values)}   s(1..{len(s_values)}) = {tuple(s_values)}")
    failures = 0
    for stage, name, outcome in rows:
        print(f"  stage {stage:>2}  {name:<{width}} {outcome}")
        failures += outcome == "fail"
    print(f"{'FAIL' if failures else 'OK'}: {failures} failing check(s) out of {len(rows)}")
    return 1 if failures else 0


def cmd_sample(args: argparse.Namespace) -> int:
    rule = _load_rule(args)
    if args.check_len < 0:
        raise ValueError("--check-len must be >= 0")
    word = sample_inflation(rule, "b", args.k, args.seed)
    limit = min(args.check_len, len(word))
    for m in range(1, limit + 1):
        legal = legal_subwords(rule, m)
        for i in range(len(word) - m + 1):
            if word[i : i + m] not in legal:
                raise InvariantViolationError(
                    f"sampled word has an illegal factor {word[i:i + m]!r}"
                )
    print(word)
    print(f"length={len(word)} factors-checked-to={limit} seed={args.seed}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rule = _load_rule(args, args.max_n)
    out = Path(os.environ.get("RAUZYLAB_OUT") or args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    complexity_rows, cohomology_rows, dots = [], [], {}
    for stage in stage_tower(rule, args.max_n):
        complexity_rows.append(_complexity_row(stage.census()))
        cohomology_rows.append(_cohomology_row(stage.report()))
        dots[stage.n] = export_dot(build_rauzy(rule, stage.n), highlight_specials=True)
    if args.format == "json":
        payload = {
            "rule": rule.name,
            "max_n": args.max_n,
            "complexity": complexity_rows,
            "cohomology": cohomology_rows,
            "graphs": {str(n): dots[n] for n in dots},
        }
        (out / "report.json").write_text(_json(payload), encoding="utf-8", newline="\n")
        print(f"wrote {out / 'report.json'}")
        return 0
    (out / "complexity.csv").write_text(_complexity_csv(complexity_rows), encoding="utf-8", newline="\n")
    (out / "cohomology.csv").write_text(_cohomology_csv(cohomology_rows), encoding="utf-8", newline="\n")
    for n, dot in dots.items():
        (out / f"rauzy_{n}.dot").write_text(dot, encoding="utf-8", newline="\n")
    print(f"wrote complexity.csv, cohomology.csv and {args.max_n} DOT file(s) to {out}")
    return 0


def _add_rule_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", default="fib", help="built-in rule name: fib or noble:m")
    p.add_argument("--rule-file", default=None, help="path to a JSON rule specification")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rauzylab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rauzylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full per-stage verification suite")
    _add_rule_options(p)
    p.add_argument("--max-n", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("complexity", help="complexity and specials table")
    _add_rule_options(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("language", help="legal factor counts (and words)")
    _add_rule_options(p)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--words", action="store_true", help="include the word lists")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_language)

    p = sub.add_parser("graph", help="emit one stage graph as DOT or JSON")
    _add_rule_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dot", default=None, help="write DOT to this path instead of stdout")
    p.add_argument("--highlight-specials", action="store_true")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cohomology", help="per-stage exact cohomology table")
    _add_rule_options(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("sample", help="print one seeded inflation of the letter b")
    _add_rule_options(p)
    p.add_argument("--k", type=int, required=True, help="number of inflation rounds")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--check-len", type=int, default=6, help="verify factors up to this length")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("report", help="write complexity, cohomology and DOT files")
    _add_rule_options(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--out", default=None, help="output directory (RAUZYLAB_OUT overrides)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RauzyLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
