"""Command line front end: one-shot and batch certification."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certify import DEFAULT_GAMMA_BUDGET, _json_text, batch
from .homfly import DEFAULT_ORACLE_BUDGET


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Certify that a rational surgery slope is shared by two distinct knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--s-start", type=int, default=1, metavar="N",
        help="take s, the least solution of ps - qr = 1 with s >= N, plus q when that is s = 1 "
        "and the s = 1 cable closes to the unknot",
    )
    shared.add_argument(
        "--gamma-budget",
        type=int,
        default=DEFAULT_GAMMA_BUDGET,
        metavar="CROSSINGS",
        help="run the direct polynomial route only up to this many crossings; its work grows "
        "fast with the strand count, so a raised budget can stall on a cable of 3 or more strands",
    )
    shared.add_argument(
        "--verify-oracle",
        action="store_true",
        help="cross-check the fast engine against the exact skein oracle on cables of at most "
        f"{DEFAULT_ORACLE_BUDGET} crossings (longer cables get no oracle check)",
    )

    one = sub.add_parser("certify", parents=[shared], help="certify a single slope P/Q")
    one.add_argument("--slope", required=True, help="slope as P/Q or a bare integer P")
    one.add_argument("--json", metavar="PATH", help="write the certificate JSON here ('-' for stdout)")

    many = sub.add_parser("batch", parents=[shared], help="certify every slope listed in a file")
    many.add_argument("--slopes", required=True, metavar="FILE", help="one P/Q per line, # comments")
    many.add_argument("--json-dir", metavar="DIR", help="write one certificate JSON per slope here")

    return parser


def _log(args):
    """stderr when stdout carries the certificate JSON alone, else stdout."""
    return sys.stderr if getattr(args, "json", None) == "-" else sys.stdout


def _certify(texts, args):
    """Certify each slope text through ``batch``, first noting each
    negative slope that is certified as its mirror."""
    report = batch(
        texts,
        s_start=args.s_start,
        gamma_budget=args.gamma_budget,
        verify_oracle=args.verify_oracle,
    )
    for entry in report.entries:
        if entry.mirror_of is not None:
            print(f"certifying {entry.slope}, the mirror of {entry.mirror_of}", file=_log(args))
    return report


def _certificate_json(entry) -> str:
    """The certificate JSON plus the negative slope it was mirrored from.

    ``mirror_of`` stays out of ``Certificate.to_obj``: a certificate is a
    function of its positive slope alone."""
    obj = entry.certificate._fields()
    obj["mirror_of"] = entry.mirror_of
    return _json_text(obj)


def _cmd_certify(args) -> int:
    (entry,) = _certify([args.slope], args).entries
    if not entry.ok:
        print(f"error: {entry.error}", file=sys.stderr)
        return 1
    print(entry.certificate.summary(), file=_log(args))
    if args.json:
        payload = _certificate_json(entry)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            try:
                Path(args.json).write_text(payload)
            except OSError as exc:
                print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {args.json}")
    return 0


def _cmd_batch(args) -> int:
    path = Path(args.slopes)
    try:
        raw_lines = path.read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.slopes}: {exc}", file=sys.stderr)
        return 1
    slopes = []
    for line in raw_lines:
        line = line.split("#", 1)[0].strip()
        if line:
            slopes.append(line)
    report = _certify(slopes, args)
    for line in report.summary_lines():
        print(line)
    if args.json_dir:
        out = Path(args.json_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for entry in report.entries:
                if entry.ok:
                    p, q = entry.certificate.slope
                    suffix = "" if entry.mirror_of is None else "_mirror"
                    payload = _certificate_json(entry)
                    (out / f"certificate_{p}_{q}{suffix}.json").write_text(payload)
        except OSError as exc:
            print(f"error: cannot write {args.json_dir}: {exc}", file=sys.stderr)
            return 1
    return 0 if report.all_ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "certify":
        return _cmd_certify(args)
    return _cmd_batch(args)


if __name__ == "__main__":
    sys.exit(main())
