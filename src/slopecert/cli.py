"""Command line front end: one-shot and batch certification."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certify import DEFAULT_GAMMA_BUDGET, batch, parse_slope
from .homfly import MEMO_CAP_ENV

_EPILOG = (
    f"The environment variable {MEMO_CAP_ENV} caps the size of the internal "
    "memo tables (entries per table)."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Certify that a rational surgery slope is shared by two distinct knots.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("certify", help="certify a single slope P/Q", epilog=_EPILOG)
    one.add_argument("--slope", required=True, help="slope as P/Q or a bare integer P")
    one.add_argument("--s-start", type=int, default=1, help="lower bound for the s search")
    one.add_argument(
        "--gamma-budget",
        type=int,
        default=DEFAULT_GAMMA_BUDGET,
        metavar="CROSSINGS",
        help="run the direct polynomial route only up to this many crossings",
    )
    one.add_argument("--json", metavar="PATH", help="write the certificate JSON here ('-' for stdout)")
    one.add_argument(
        "--verify-oracle",
        action="store_true",
        help="cross-check the fast engine against the exact skein oracle when affordable",
    )

    many = sub.add_parser("batch", help="certify every slope listed in a file", epilog=_EPILOG)
    many.add_argument("--slopes", required=True, metavar="FILE", help="one P/Q per line, # comments")
    many.add_argument("--s-start", type=int, default=1)
    many.add_argument("--gamma-budget", type=int, default=DEFAULT_GAMMA_BUDGET, metavar="CROSSINGS")
    many.add_argument("--verify-oracle", action="store_true")
    many.add_argument("--json-dir", metavar="DIR", help="write one certificate JSON per slope here")

    return parser


def _certify_texts(texts, args):
    """Certify each slope text through ``batch``, mapping a negative slope
    to its mirror. Returns the report and, per entry, the slope it mirrors
    (or None)."""
    items, mirrors = [], []
    for text in texts:
        try:
            p, q = parse_slope(text)
        except ValueError:
            items.append(text)  # batch records the parse error
            mirrors.append(None)
            continue
        mirror_of = f"{p}/{q}" if p < 0 else None
        if mirror_of is not None:
            print(f"certifying {-p}/{q}, the mirror of {mirror_of}")
        items.append((abs(p), q))
        mirrors.append(mirror_of)
    report = batch(
        items,
        s_start=args.s_start,
        gamma_budget=args.gamma_budget,
        verify_oracle=args.verify_oracle,
    )
    return report, mirrors


def _certificate_json(cert, mirror_of) -> str:
    """The certificate JSON plus the negative slope it was mirrored from.

    ``mirror_of`` stays out of ``Certificate.to_obj``: a certificate is a
    function of its positive slope alone."""
    obj = cert.to_obj()
    obj["mirror_of"] = mirror_of
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_certify(args) -> int:
    report, (mirror_of,) = _certify_texts([args.slope], args)
    (entry,) = report.entries
    if not entry.ok:
        print(f"error: {entry.error}", file=sys.stderr)
        return 1
    print(entry.certificate.summary())
    if args.json:
        payload = _certificate_json(entry.certificate, mirror_of)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload)
            print(f"wrote {args.json}")
    return 0


def _cmd_batch(args) -> int:
    path = Path(args.slopes)
    try:
        raw_lines = path.read_text().splitlines()
    except OSError as exc:
        print(f"error: cannot read {args.slopes}: {exc}", file=sys.stderr)
        return 1
    slopes = []
    for line in raw_lines:
        line = line.split("#", 1)[0].strip()
        if line:
            slopes.append(line)
    report, mirrors = _certify_texts(slopes, args)
    for line in report.summary_lines():
        print(line)
    if args.json_dir:
        out = Path(args.json_dir)
        out.mkdir(parents=True, exist_ok=True)
        for entry, mirror_of in zip(report.entries, mirrors):
            if entry.ok:
                p, q = entry.certificate.slope
                name = f"certificate_{p}_{q}{'' if mirror_of is None else '_mirror'}.json"
                (out / name).write_text(_certificate_json(entry.certificate, mirror_of))
    return 0 if report.all_ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "certify":
        return _cmd_certify(args)
    return _cmd_batch(args)


if __name__ == "__main__":
    sys.exit(main())
