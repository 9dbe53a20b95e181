"""Command-line front end.

Subcommands: ``group`` (info/export), ``quandle`` (build/check/info),
``aut`` (enumerate quandle automorphisms or antiautomorphisms),
``verify`` (one theorem check), ``census`` (everything over the catalog).

Exit codes: 0 success/holds, 1 verification or validation failure,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional

from .constructions import build, spec_from_string
from .errors import NotClosed, QuandleAxiomError, QuandleKitError
from .groups import FiniteGroup, group_from_text, group_to_text, named_group
from .groupmaps import _auts
from .harness import CHECK_IDS, run_check, run_census
from .quandles import Quandle, inn_group, quandle_from_text, quandle_to_text
from .quandlemaps import (
    enumerate_quandle_antis,
    enumerate_quandle_auts,
    quandle_anti_oracle,
    quandle_aut_oracle,
)
from .verdicts import report_json

__all__ = ["main", "build_parser"]


def _add_group_source(parser: argparse.ArgumentParser, own_file: bool) -> None:
    parser.add_argument(
        "--group",
        help="named group spec: Z<n>, D<n>, S<n>, Q8, heisenberg<p>, products via x (Z3xZ3)",
    )
    parser.add_argument(
        "--group-file", help="path of a group multiplication table file", dest="group_file"
    )
    if own_file:
        parser.add_argument("--file", help="path of the object's own table file")


def _add_output(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument("--format", choices=("text", "json"), default=default_format)
    parser.add_argument("-o", "--output", help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="Finite quandles from groups: construction, enumeration, "
        "and mechanical verification of their automorphism structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("group", help="inspect or export a finite group")
    pg.add_argument("action", choices=("info", "export"))
    pg.add_argument("--group", help="named group spec, e.g. S3, D4, Z3xZ3")
    pg.add_argument("--file", help="path of a group multiplication table file")
    _add_output(pg)

    pq = sub.add_parser("quandle", help="build, validate, or inspect a quandle")
    pq.add_argument("action", choices=("build", "check", "info"))
    pq.add_argument(
        "--quandle",
        help="construction spec: trivial:n=4, dihedral:n=5, conj:m=2, core, "
        "alex:phi=1, q2:psi=0, p1:c=3",
    )
    _add_group_source(pq, own_file=True)
    _add_output(pq)

    pa = sub.add_parser("aut", help="enumerate quandle automorphisms or antiautomorphisms")
    pa.add_argument("--quandle", help="construction spec (see `quandle`)")
    pa.add_argument("--anti", action="store_true", help="enumerate antiautomorphisms")
    pa.add_argument(
        "--oracle", action="store_true", help="cross-check the enumeration against the n! oracle"
    )
    pa.add_argument("--limit", type=int, default=10, help="how many maps to print (default 10)")
    _add_group_source(pa, own_file=True)
    _add_output(pa)

    pv = sub.add_parser("verify", help="run one theorem check, sweeping omitted parameters")
    pv.add_argument("theorem_id", choices=CHECK_IDS, metavar="THEOREM_ID")
    _add_group_source(pv, own_file=False)
    pv.add_argument("--m", type=int, help="conjugation exponent")
    pv.add_argument("--n", type=int, help="dihedral quandle order")
    pv.add_argument("--c", type=int, help="distinguished element index")
    pv.add_argument("--phi", type=int, help="index into the sorted Aut(G) list")
    pv.add_argument("--psi", type=int, help="index into the sorted AAut(G) list")
    _add_output(pv)

    pc = sub.add_parser("census", help="run every check over the default catalog")
    _add_output(pc, default_format="json")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload)


def _dump(report: dict, output: Optional[str]) -> None:
    """Stream a JSON report, indented by 2 and ending in a newline, to a file or stdout: the CLI's one JSON writer.

    The bytes are those of ``_emit(json.dumps(report, indent=2), output)``,
    without the whole string in memory at once.
    """
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _load_group(args, required: bool = True) -> Optional[FiniteGroup]:
    if getattr(args, "group_file", None):
        return group_from_text(_read(args.group_file))
    if getattr(args, "group", None):
        return named_group(args.group)
    if getattr(args, "file", None) and args.command == "group":
        return group_from_text(_read(args.file))
    if required:
        raise QuandleKitError("a group is required: pass --group NAME or a table file")
    return None


def _load_quandle(args) -> Quandle:
    if getattr(args, "file", None):
        return quandle_from_text(_read(args.file))
    if not getattr(args, "quandle", None):
        raise QuandleKitError("a quandle is required: pass --quandle SPEC or --file PATH")
    base = _load_group(args, required=False)
    return build(spec_from_string(args.quandle, group=base))


def _group_info(G: FiniteGroup) -> dict:
    return {
        "name": G.name,
        "order": G.n,
        "abelian": G.is_abelian,
        "cyclic": G.is_cyclic,
        "center_size": len(G.center()),
        "commutator_subgroup_size": len(G.commutator_subgroup()),
        "exponent": G.exponent,
        "aut_size": len(_auts(G).aut),
        "aaut_size": len(_auts(G).aaut),
    }


def cmd_group(args) -> int:
    G = _load_group(args)
    if args.action == "export":
        if args.format == "json":
            _dump({"name": G.name, "order": G.n, "table": G.table.tolist()}, args.output)
        else:
            _emit(group_to_text(G).rstrip("\n"), args.output)
        return 0
    info = _group_info(G)
    if args.format == "json":
        _dump(info, args.output)
    else:
        _emit("\n".join(f"{key}: {value}" for key, value in info.items()), args.output)
    return 0


def _quandle_info(Q: Quandle) -> dict:
    info = Q.to_json()
    info["inn_size"] = len(inn_group(Q))
    return info


def cmd_quandle(args) -> int:
    if args.action == "check":
        if not args.file:
            raise QuandleKitError("`quandle check` needs --file PATH")
        try:
            Q = quandle_from_text(_read(args.file))
        except (QuandleAxiomError, NotClosed) as exc:
            _emit(f"invalid: {exc}", args.output)
            return 1
        _emit(f"valid quandle of order {Q.n}", args.output)
        return 0
    Q = _load_quandle(args)
    if args.action == "build":
        if args.format == "json":
            _dump(Q.to_json(), args.output)
        else:
            _emit(quandle_to_text(Q).rstrip("\n"), args.output)
        return 0
    info = _quandle_info(Q)
    if args.format == "json":
        _dump(info, args.output)
    else:
        scalars = {k: v for k, v in info.items() if not isinstance(v, list)}
        _emit("\n".join(f"{key}: {value}" for key, value in scalars.items()), args.output)
    return 0


def cmd_aut(args) -> int:
    Q = _load_quandle(args)
    if args.anti:
        maps = enumerate_quandle_antis(Q)
        kind = "antiautomorphisms"
    else:
        maps = enumerate_quandle_auts(Q)
        kind = "automorphisms"
    oracle_note = ""
    if args.oracle:
        oracle_maps = quandle_anti_oracle(Q) if args.anti else quandle_aut_oracle(Q)
        if {m.map.as_tuple() for m in maps} != {m.map.as_tuple() for m in oracle_maps}:
            _emit("oracle cross-check FAILED: enumerations disagree", args.output)
            return 1
        oracle_note = " (oracle cross-check ok)"
    shown = maps[: max(args.limit, 0)]
    if args.format == "json":
        _dump({"quandle": Q.name, "kind": kind, "count": len(maps), "maps": [m.to_json() for m in shown]},
              args.output)
        return 0
    lines = [f"{Q.name}: {len(maps)} {kind}{oracle_note}"]
    lines.extend(str(list(map(int, m.images))) for m in shown)
    if len(maps) > len(shown):
        lines.append(f"... {len(maps) - len(shown)} more")
    _emit("\n".join(lines), args.output)
    return 0


def cmd_verify(args) -> int:
    G = _load_group(args, required=False)
    verdicts = run_check(
        args.theorem_id, G, m=args.m, n=args.n, c=args.c, phi_index=args.phi, psi_index=args.psi
    )
    ok = all(v.holds for v in verdicts)
    if args.format == "json":
        _dump(report_json([G.name] if G else [], verdicts), args.output)
    else:
        lines = [v.render_text() for v in verdicts]
        lines.append(f"{'HOLDS' if ok else 'FAILED'}: {args.theorem_id} ({len(verdicts)} checks)")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


def cmd_census(args) -> int:
    report = run_census()
    summary = report["summary"]
    line = (
        "census: {total} verdicts, {holds} hold, {failed} failed, "
        "{vacuous} vacuous, {skipped} skipped".format(**summary)
    )
    if args.format == "json":
        _dump(report, args.output)
    else:
        lines = [
            f"FAIL {check['theorem_id']} :: {check['inputs']}: {check['notes']}"
            for check in report["checks"]
            if not check["holds"]
        ]
        _emit("\n".join(lines + [line]), args.output)
    if args.output:
        print(line)
    return 0 if summary["failed"] == 0 else 1


_DISPATCH = {
    "group": cmd_group,
    "quandle": cmd_quandle,
    "aut": cmd_aut,
    "verify": cmd_verify,
    "census": cmd_census,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except QuandleKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
