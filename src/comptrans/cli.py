"""Command-line front end.

Exit codes: 0 success or check pass, 1 check fail or witness found, 2 usage
or input error, 3 resource cap exceeded (including a tree nested deeper than
the interpreter's recursion limit). Output for identical inputs and
flags is byte-identical across runs.
"""

import argparse
import os
import sys

from . import __version__
from .completeness import (
    check_homomorphism,
    check_n1_completeness,
    check_nn_completeness,
    validate_labels,
    witness_report,
)
from .errors import ComptransError, ResourceLimitError
from .loader import FileContents, LoadedPair, load_pair, parse_file, pick, read_text
from .model import SemanticComponent
from .parsing import DEFAULT_AMBIGUITY_CAP, morsynan
from .pipeline import translate
from .render import (
    dump_json,
    envelope,
    report_to_json,
    report_to_text,
    trace_to_json,
    trace_to_text,
    trees_to_json,
    trees_to_text,
    FORMAT_VERSION,
)
from .trees import enumerate_trees, format_tree, random_sem_tree


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_into(env: dict[str, SemanticComponent], path: str) -> FileContents:
    """Parse one grammar file; its semantic components join ``env`` for later files."""
    contents = parse_file(read_text(path), path, env)
    env.update((sc.name, sc) for sc in contents.semantics)
    return contents


def _load_env(paths) -> dict[str, SemanticComponent]:
    env: dict[str, SemanticComponent] = {}
    for p in paths or []:
        _parse_into(env, p)
    return env


def _pair_envelope(command: str, pair, **payload) -> dict:
    return envelope(command, source=pair.source.name, target=pair.target.name, **payload)


# -- subcommands -------------------------------------------------------------
#
# Each returns its exit code, its JSON document and its text rendering.


def _cmd_validate(args):
    files = []
    # semantic components accumulate left to right, so a shared interlingua
    # file can precede the grammar files that use it
    env = _load_env(args.semantics)
    for path in args.paths:
        is_pair = path.endswith(".cgp")
        if is_pair:
            pair = load_pair(path).pair
            semantics, grammars = [pair.source.semantics], sorted({pair.source.name, pair.target.name})
        else:
            contents = _parse_into(env, path)
            semantics, grammars = contents.semantics, [g.name for g in contents.grammars]
        files.append(
            {"path": path, "semantics": [sc.name for sc in semantics], "grammars": grammars, "pair": is_pair}
        )
    lines = []
    for entry in files:
        what = []
        if entry["semantics"]:
            what.append("semantics " + ", ".join(entry["semantics"]))
        if entry["grammars"]:
            kind = "pair" if entry["pair"] else "grammars"
            what.append(f"{kind} " + ", ".join(entry["grammars"]))
        lines.append(f"{entry['path']}: OK ({'; '.join(what)})")
    return 0, envelope("validate", files=files), "\n".join(lines)


def _cmd_parse(args):
    contents = _parse_into(_load_env(args.semantics), args.path)
    grammar = pick(contents.grammars, args.grammar, "grammar", args.path, "pick one with --grammar")
    tokens = args.utterance.split()
    trees = morsynan(grammar, tokens, category=args.cat, max_trees=args.cap)
    doc = envelope(
        "parse",
        grammar=grammar.name,
        utterance=tokens,
        category=args.cat,
        trees=trees_to_json(trees),
    )
    return 0, doc, trees_to_text(trees)


def _cmd_translate(args):
    loaded = load_pair(args.path)
    tokens = args.utterance.split()
    trace = translate(loaded.pair, tokens, max_trees=args.cap)
    doc = _pair_envelope(
        "translate",
        loaded.pair,
        utterance=tokens,
        translations=[list(u) for u in trace.target_utterances],
        trace=trace_to_json(trace) if args.trace else None,
    )
    if args.trace:
        return 0, doc, trace_to_text(trace)
    return 0, doc, "\n".join(" ".join(u) for u in trace.target_utterances)


def _need_correspondence(loaded: LoadedPair, condition: str):
    if loaded.correspondence is None:
        raise ComptransError(
            f"condition '{condition}' needs correspond blocks, and {loaded.path} declares none"
        )
    return loaded.correspondence


def _cmd_check(args):
    if args.depth is not None and args.condition != "labels":
        raise ComptransError("--depth bounds only --condition labels")
    loaded = load_pair(args.path)
    condition = args.condition
    if condition is None:
        condition = "nn" if loaded.correspondence is not None else "n1"
    if condition == "homomorphism":
        report = check_homomorphism(loaded.pair)
    elif condition == "n1":
        report = check_n1_completeness(loaded.pair)
    elif condition == "nn":
        report = check_nn_completeness(loaded.pair, _need_correspondence(loaded, condition))
    else:
        report = validate_labels(
            loaded.pair, _need_correspondence(loaded, condition), max_depth=args.depth
        )
    heading = f"check {condition} for {loaded.pair.source.name} -> {loaded.pair.target.name}"
    doc = _pair_envelope("check", loaded.pair, report=report_to_json(report))
    return (0 if report.passed else 1), doc, report_to_text(report, heading)


def _cmd_witness(args):
    loaded = load_pair(args.path)
    report = witness_report(loaded.pair, args.depth)
    doc = _pair_envelope("witness", loaded.pair, depth=args.depth, report=report_to_json(report))
    if report.witness is None:
        return 0, doc, "none"
    return 1, doc, format_tree(report.witness)


def _cmd_enumerate(args):
    contents = _parse_into(_load_env(args.semantics), args.path)
    if args.kind == "syn":
        component = pick(contents.grammars, args.grammar, "grammar", args.path, "pick one with --grammar")
        if args.sample is not None:
            raise ComptransError("--sample draws semantic trees; use --kind sem")
    else:
        component = pick(
            contents.semantics, args.component, "semantic component", args.path, "pick one with --component"
        )
    if args.sample is not None:
        trees = [random_sem_tree(component, args.cat, args.depth, args.seed + i) for i in range(args.sample)]
        trees = [t for t in trees if t is not None]
    else:
        trees = enumerate_trees(component, args.cat, args.depth)
    doc = envelope(
        "enumerate",
        kind=args.kind,
        category=args.cat,
        depth=args.depth,
        trees=trees_to_json(trees),
    )
    return 0, doc, trees_to_text(trees)


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comptrans",
        description=(
            "Compositional translation over CFG-based grammars: parse, translate, "
            "and statically check translation completeness."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"comptrans {__version__} (report format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(func=func)
        return p

    def grammar_file_options(p, metavar: str) -> None:
        p.add_argument("path", metavar=metavar)
        p.add_argument("--grammar", help="grammar name if the file declares several")
        p.add_argument("--semantics", action="append", metavar="FILE", help="extra semantics file")

    p = command("validate", _cmd_validate, "load grammar or pair files and report their contents")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument("--semantics", action="append", metavar="FILE", help="extra semantics file")

    cap_help = f"ambiguity cap (default {DEFAULT_AMBIGUITY_CAP})"
    p = command("parse", _cmd_parse, "all derivation trees of an utterance")
    grammar_file_options(p, "GRAMMAR.cg")
    p.add_argument("--utterance", required=True, help="tokens, whitespace-separated")
    p.add_argument("--cat", help="restrict to one result category")
    p.add_argument("--cap", type=_positive_int, help=cap_help)

    p = command("translate", _cmd_translate, "translate an utterance through a grammar pair")
    p.add_argument("path", metavar="PAIR.cgp")
    p.add_argument("--utterance", required=True)
    p.add_argument("--trace", action="store_true", help="show every intermediate stage")
    p.add_argument("--cap", type=_positive_int, help=cap_help)

    def pair_options(p, bounded: str) -> None:
        p.add_argument("path", metavar="PAIR.cgp")
        p.add_argument(
            "--depth",
            type=_positive_int,
            help=f"stop {bounded} after this many rounds (default: run until no new state appears, then exact)",
        )

    p = command("check", _cmd_check, "static completeness conditions for a grammar pair")
    p.add_argument(
        "--condition",
        choices=["homomorphism", "n1", "nn", "labels"],
        help="default: nn when the pair declares correspondences, else n1",
    )
    pair_options(p, "the labels check")

    p = command("witness", _cmd_witness, "search for a semantic tree with no translation")
    pair_options(p, "the witness search")

    p = command("enumerate", _cmd_enumerate, "enumerate or sample derivation trees")
    grammar_file_options(p, "FILE.cg")
    p.add_argument("--cat", required=True, help="category to enumerate")
    p.add_argument("--depth", type=_positive_int, default=4)
    p.add_argument("--kind", choices=["syn", "sem"], default="syn")
    p.add_argument("--component", help="semantic component name if the file declares several")
    p.add_argument("--sample", type=_positive_int, help="draw N random semantic trees")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    args = build_parser().parse_args(argv)
    try:
        code, doc, text = args.func(args)
        text = dump_json(doc) if args.format == "json" else text
        if text:
            print(text, flush=True)
        return code
    except BrokenPipeError:
        # the reader closed stdout; the rest goes to nowhere, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        # every walk takes one frame per tree level; how deep a list passes depends on the
        # entry point's own frames: 988 tokens via `comptrans`, 986 via `python -m comptrans.cli`
        print(
            "error: a derivation tree nests deeper than the interpreter's recursion limit "
            f"({sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return 3
    except (ComptransError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
