"""Command line entry points.

Three subcommands: ``homs`` enumerates a hom-set, ``verify`` runs named
check suites, ``render`` emits JSON or DOT for the catalogued objects.
All output is deterministic.  Each command imports the library modules it
runs when it runs, so ``render`` never loads ``duality`` or ``verify``.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice
from pathlib import Path

from .posets import CapExceededError


# The most UTF-8 bytes one write hands on: large enough that the 3.1 MB
# hairy cube leaves in about 190 writes, small enough that no output is ever
# held whole, joined and again encoded.
WRITE_BYTES = 16 * 1024


def _write_joined(write, chunks) -> None:
    """Pass the chunks to write joined into pieces of at most WRITE_BYTES
    bytes of UTF-8, each full but the last, cut where a character starts."""
    it, text = iter(chunks), ""
    while batch := list(islice(it, 64)):  # joined 64 at a time: few small objects held
        text = "".join([text, *batch])  # the rest so far is freed here, not held on
        text = _write_pieces(write, text, WRITE_BYTES)
    _write_pieces(write, text, 1)


def _write_pieces(write, text: str, keep: int) -> str:
    """Write full pieces off the front of text while at least keep characters
    are left, and return the rest."""
    start = 0
    while len(text) - start >= keep:
        piece = text[start:start + WRITE_BYTES]
        if not piece.isascii():
            data = piece.encode("utf-8", "surrogatepass")
            if len(data) > WRITE_BYTES:
                cut = WRITE_BYTES
                while data[cut] & 0xC0 == 0x80:  # inside a character's bytes
                    cut -= 1
                piece = data[:cut].decode("utf-8", "surrogatepass")
        write(piece)
        start += len(piece)
    return text[start:]


def _write(args: argparse.Namespace, stem: str, payload_fn, lines_fn, *fn_args) -> None:
    """Write `payload_fn(*fn_args)` as JSON under --format json, else each
    line of `lines_fn(*fn_args)`, to stdout or to --out/stem.json|txt|dot,
    after --format (UTF-8).  Consecutive chunks are joined into writes of at
    most WRITE_BYTES, so the document is never held whole.  A file is written
    under a temporary name and renamed when complete, so an error while the
    document is made leaves no file behind."""
    if args.format == "json":
        from .render import json_chunks

        chunks = json_chunks(payload_fn(*fn_args))
    else:
        chunks = (line + "\n" for line in lines_fn(*fn_args))
    if args.out is None:
        _write_joined(sys.stdout.write, chunks)
        return
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / f"{stem}.{'txt' if args.format == 'text' else args.format}"
    partial = target.with_name(f".{target.name}.{os.getpid()}.part")
    try:
        with partial.open("w", encoding="utf-8") as fh:
            _write_joined(fh.write, chunks)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(target)


def _homs(n: int, variant_name: str) -> tuple[HomSet, str]:
    """Search directly when the carrier fits the cap (n <= 2), otherwise
    take the term clone (n = 3) and keep the tables preserving the
    variant's structure, all 775 checked in one column-wise pass of
    `break_flags`."""
    from .duality import VARIANTS, homs_for_variant, variant
    from .homsets import DEFAULT_CARRIER_CAP, HomSet, break_flags, clone_closure

    variant(variant_name)
    if 3 ** n <= DEFAULT_CARRIER_CAP:
        return homs_for_variant(n, variant_name), "search"
    clone = clone_closure(n)
    var = VARIANTS[variant_name]
    space = var.power_space(n)
    flags = break_flags(clone.maps, space, var.relations, var.partial_ops)
    kept = tuple(m for m, bad in zip(clone.maps, flags) if not bad)
    return HomSet(space, kept), "clone-filter"


def cmd_homs(args: argparse.Namespace) -> int:
    from .render import homset_payload, homset_text

    homset, method = _homs(args.n, args.variant)
    _write(args, f"homs_n{args.n}_{args.variant}", homset_payload, homset_text,
           homset, args.variant, method)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import report_lines, reports_payload, run_suite

    reports = run_suite(args.suite, args.n)
    _write(args, f"verify_{args.suite}", reports_payload, report_lines, reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_render(args: argparse.Namespace) -> int:
    from .render import RENDERABLES

    payload_fn, dot_fn, needs_n = RENDERABLES[args.target]
    fn_args = (args.n,) if needs_n else ()
    stem = args.target.replace("-", "_") + (f"_n{args.n}" if needs_n else "")
    _write(args, stem, payload_fn, dot_fn, *fn_args)
    return 0


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Only the command argv names gets its choices of
    variant, suite or target: they are read off the modules that command
    runs, so parsing it loads no other command's modules."""
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="hairycube",
        description="Enumerate, verify and render the finite duality objects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    homs = sub.add_parser("homs", help="enumerate morphisms of a power of S")
    homs.add_argument("--n", type=int, default=1, help="power of S (default 1)")
    variant = homs.add_argument(
        "--variant", default="relational", help="structure on S (default relational)"
    )
    homs.add_argument("--format", choices=("json", "text"), default="text")
    homs.add_argument("--out", type=Path, default=None, help="directory to write into")
    homs.set_defaults(fn=cmd_homs)

    verify = sub.add_parser("verify", help="run a named verification suite")
    suite = verify.add_argument("suite", help="suite name or 'all'")
    verify.add_argument(
        "--n", type=int, default=None, help="cap the power where a suite scales"
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", type=Path, default=None)
    verify.set_defaults(fn=cmd_verify)

    render = sub.add_parser("render", help="emit JSON or DOT for an object")
    target = render.add_argument("target")
    render.add_argument("--n", type=int, default=2)
    render.add_argument("--format", choices=("json", "dot"), default="json")
    render.add_argument("--out", type=Path, default=None)
    render.set_defaults(fn=cmd_render)

    if named == "homs":
        from .duality import VARIANTS

        variant.choices = sorted(VARIANTS)
    elif named == "verify":
        from .verify import SUITES

        suite.choices = sorted(SUITES) + ["all"]
    elif named == "render":
        from .render import RENDERABLES

        target.choices = sorted(RENDERABLES)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left (`| head`): exit quietly, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so exit's flush passes
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
