"""Command-line surface.

Every subcommand reads poset files in the ``{"elements": [...], "covers":
[[a,b], ...]}`` schema, validates them before computing, and writes either
a human-readable summary or (with ``--json``) a machine-readable document.
Exit status: 0 success, 1 verification failure or standard output closed
early (quietly), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from datetime import datetime, timezone

from aslattice import genposets, polytopes, posets, straightening, uniqueness
from aslattice.errors import AslatticeError
from aslattice.ideals import enumerate_ideals, lattice_dot, lattice_to_json
from aslattice.posets import connected_components, is_direct_sum_of_chains, label_set

KIND_BY_NAME = {k.value: k for k in straightening.RealizationKind}


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.json:
        if not args.no_timestamp:
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read_json(path: str, what: str):
    """A file's JSON document; ValueError covers bad UTF-8, bad JSON and an
    integer past Python's digit limit, RecursionError too deep a nesting."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259)
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemExit(f"error: cannot read {what} {path}: {exc}") from exc


class _WholeDocument(BaseException):
    """The certificate stream gives way to the whole-document path.  A
    BaseException, so that it passes through ``certificate_from_json``,
    which turns every Exception into a malformed-certificate verdict."""


_CHUNK = 1 << 16  # characters per read
_WS = re.compile(r"[ \t\n\r]*")  # JSON whitespace, as the json module skips it
_decode = json.JSONDecoder().raw_decode  # what json.load decodes with


class _Chunks:
    """A JSON text read in chunks, with a cursor into a buffer that holds
    only what is still to be decoded.  Any read or decode failure raises
    _WholeDocument."""

    def __init__(self, fh):
        self.fh, self.buf, self.pos, self.eof = fh, "", 0, False

    def _more(self) -> None:
        """Keep the undecoded rest and read at least as much again."""
        if self.eof:
            raise _WholeDocument
        try:
            chunk = self.fh.read(max(_CHUNK, len(self.buf) - self.pos))
        except (OSError, ValueError):  # ValueError: bad UTF-8
            raise _WholeDocument from None
        self.buf = self.buf[self.pos :] + chunk
        self.pos = 0
        self.eof = not chunk

    def peek(self) -> str:
        """The next character after whitespace, '' at the end of the file."""
        while True:
            self.pos = _WS.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos : self.pos + 1]
            self._more()

    def take(self, char: str) -> None:
        """Step past the next character, which must be ``char``."""
        if self.peek() != char:
            raise _WholeDocument
        self.pos += 1

    def skip(self, sep: str, text: str) -> bool:
        """Step past ``sep`` and ``text`` if the file holds them at the
        cursor, as they are: whitespace is not skipped.  Whether it did."""
        while len(self.buf) - self.pos < len(sep) + len(text) and not self.eof:
            self._more()
        start = self.pos + len(sep)
        if self.buf.startswith(sep, self.pos) and self.buf.startswith(text, start):
            self.pos = start + len(text)
            return True
        return False

    def value(self):
        """The next JSON value.  A failed decode is retried on a longer
        buffer, and so is one that ends at the buffer's end, since a number
        cut there decodes as a shorter one."""
        self.peek()  # past the whitespace, which the decoder does not skip
        while True:
            try:
                obj, end = _decode(self.buf, self.pos)
            except (ValueError, RecursionError):  # ValueError: JSONDecodeError, digit limit
                pass
            else:
                if end < len(self.buf) or self.eof:
                    self.pos = end
                    return obj
            self._more()


def _certificate_stream(fh):
    """``(header, src)`` of a certificate file whose top-level object ends
    with its ``"steps"`` array: the keys before that array decoded, and the
    file as ``_Chunks`` with its cursor inside the array.  A header key
    that repeats keeps its last value, as with ``json.load``.  Raises
    _WholeDocument on any read or decode failure, on a top-level value
    other than an object, and on an object without ``"steps"`` or with a
    ``"steps"`` value other than an array."""
    src = _Chunks(fh)
    src.take("{")
    header = {}
    while src.peek() == '"':
        key = src.value()
        src.take(":")
        if key == "steps":
            src.take("[")
            return header, src
        header[key] = src.value()
        src.take(",")
    raise _WholeDocument


def _verdict(doc: dict, p: posets.Poset, text=None) -> tuple[bool, str]:
    """The verdict on a certificate document: the fault that parsing it
    raises, or replay's (``validate_certificate`` with ``text``)."""
    try:
        cert = uniqueness.certificate_from_json(doc, p)
    except AslatticeError as exc:
        return False, str(exc)
    return uniqueness.validate_certificate(p, cert, text=text)


def _validate_file(path: str, p: posets.Poset) -> tuple[bool, str]:
    """The verdict of a certificate file, read once.  Its header keys are
    decoded and parsed with ``certificate_from_json``.  Then replay
    (``validate_certificate`` with ``text``) takes each step it expects
    while the file holds exactly the writer's text of it, and reads every
    later entry of the ``"steps"`` array as it comes: decoded, parsed,
    replayed and dropped before the next is decoded.  A parse fault in a
    header key or a step comes before any replay fault, so after one the
    rest of the file is still decoded, step by step.  Where the stream
    gives way, the whole document is read with ``_read_json`` and judged
    as it is, so every verdict and message is the one that path gives.

    Logs one DEBUG record on the ``aslattice`` logger: the steps whose
    text matched, and the step where decoding began, if any."""
    import logging  # here, not at the top: it adds about 5 ms to importing the package

    matched = decoded = 0
    note = "an error ended the replay"
    try:
        with open(path, encoding="utf-8") as fh:
            header, src = _certificate_stream(fh)

            def match(text: str) -> bool:
                nonlocal matched
                if not src.skip("," if matched else "", text):
                    return False
                matched += 1
                return True

            def entries():
                """The entries after the matched steps, then the end of the
                file: the array's and the object's closing brackets and
                nothing after them but whitespace."""
                nonlocal decoded
                if not matched and src.peek() != "]":
                    decoded += 1
                    yield src.value()
                while src.peek() == ",":
                    src.pos += 1
                    decoded += 1
                    yield src.value()
                src.take("]")
                src.take("}")
                if src.peek():
                    raise _WholeDocument

            rest = entries()
            ok, reason = _verdict({**header, "steps": rest}, p, text=match)
            for _ in rest:  # what a parse fault left: a decode failure there comes first
                pass
        if decoded:
            note = f"decoding began at step {matched}"
        else:
            note = ("ACCEPTED" if ok else "REJECTED") + " without parsing"
    except (OSError, _WholeDocument):
        note = "the stream gave way"
        ok, reason = _verdict(_read_json(path, "certificate"), p)
    finally:
        logging.getLogger("aslattice").debug(
            "validate-cert text: %d steps matched; %s", matched, note
        )
    return ok, reason


def _load(path: str) -> posets.Poset:
    return posets.poset_from_json(_read_json(path, "poset file"))


def _witness_json(p: posets.Poset, kinds, pair, rhs_a, rhs_b) -> dict:
    """A condition-(ii) witness with its ideals as label lists: the two
    relation kinds that differ, the ideal pair and each kind's right side."""
    return {
        "kinds": [k.value for k in kinds],
        "pair": [p.labels_of(m) for m in pair],
        "rhs": [[p.labels_of(m) for m in rhs] for rhs in (rhs_a, rhs_b)],
    }


def cmd_analyze(args) -> int:
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    comps = connected_components(p)
    soc = is_direct_sum_of_chains(p)
    doc = {
        "elements": p.n,
        "ideals": len(lat),
        "covers": len(p.covers),
        "components": len(comps),
        "maximal_chains": posets.count_maximal_chains(p),
        "incomparable_ideal_pairs": len(lat.incomparable_pairs),
        "sum_of_chains": soc,
    }
    lines = [f"{k.replace('_', ' ')}: {v}" for k, v in doc.items()]
    _emit(args, doc, lines)
    return 0


def cmd_lattice(args) -> int:
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    if args.dot:
        print(lattice_dot(lat), end="")
        return 0
    doc = lattice_to_json(lat)
    lines = [label_set(ideal) for ideal in doc["ideals"]]
    _emit(args, doc, lines)
    return 0


def cmd_vertices(args) -> int:
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    if args.polytope == "order":
        verts = polytopes.order_polytope_vertices(lat)
    else:
        verts = polytopes.chain_polytope_vertices(lat)
    doc = {
        "polytope": args.polytope,
        "coordinates": list(p.labels),
        "vertices": [polytopes.format_point(v) for v in verts],
    }
    lines = [" ".join(polytopes.format_point(v)) for v in verts]
    _emit(args, doc, lines)
    return 0


def cmd_relations(args) -> int:
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    pm = straightening.straightening_relations(lat, KIND_BY_NAME[args.kind])
    doc = {"kind": args.kind, "entries": pm.table_json()}
    lines = [
        "%s*%s = %s*%s" % tuple(map(label_set, (*e["pair"], *e["rhs"]))) for e in doc["entries"]
    ]
    _emit(args, doc, lines or ["no incomparable pairs"])
    return 0


def cmd_compare(args) -> int:
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    rep = straightening.check_condition_ii(lat)
    witnesses = [_witness_json(p, *w) for w in rep.witnesses]
    doc = {"all_equal": rep.equal, "witnesses": witnesses}
    lines = [f"all three relation systems equal: {'yes' if rep.equal else 'no'}"]
    for w in witnesses:
        a, b = map(label_set, w["pair"])
        lines.append(f"  {w['kinds'][0]} vs {w['kinds'][1]} differ on pair {a},{b}")
    _emit(args, doc, lines)
    return 0


def cmd_unique(args) -> int:
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    res = uniqueness.check_unique(lat)
    if res.unique:
        if args.certificate:
            try:
                with open(args.certificate, "w") as fh:
                    fh.writelines(uniqueness.certificate_to_json(res.certificate))
            except OSError as exc:
                raise SystemExit(
                    f"error: cannot write certificate {args.certificate}: {exc}"
                ) from exc
        doc = {"verdict": "UNIQUE", "certificate_steps": len(res.certificate.steps)}
        lines = [f"UNIQUE ({len(res.certificate.steps)} certified pairs)"]
        if args.certificate:
            lines.append(f"certificate written to {args.certificate}")
    else:
        w = _witness_json(p, res.witness_kinds, res.witness_pair, *res.witness_rhs)
        doc = {"verdict": "NOT_UNIQUE", **{f"witness_{k}": v for k, v in w.items()}}
        a, b = map(label_set, w["pair"])
        lines = [
            "NOT_UNIQUE",
            f"witness kinds: {w['kinds'][0]} vs {w['kinds'][1]}",
            f"witness pair: {a}, {b}",
        ]
    _emit(args, doc, lines)
    return 0


def cmd_validate_cert(args) -> int:
    p = _load(args.poset)
    ok, reason = _validate_file(args.certificate, p)
    doc = {"valid": ok, "reason": reason}
    _emit(args, doc, ["ACCEPTED" if ok else f"REJECTED: {reason}"])
    return 0 if ok else 1


def cmd_search(args) -> int:
    if args.max_degree < 2:
        raise SystemExit("error: --max-degree must be at least 2")
    p = _load(args.poset)
    lat = enumerate_ideals(p)
    systems = uniqueness.search_compatible_asls(lat, max_degree=args.max_degree)
    doc = {
        "count": len(systems),
        "exhausted": True,
        "max_degree": args.max_degree,
        "systems": [pm.table_json() for pm in systems],
    }
    lines = [
        f"realizable compatible systems: {len(systems)} "
        f"(candidate space exhausted up to degree {args.max_degree})"
    ]
    _emit(args, doc, lines)
    return 0


def cmd_corpus(args) -> int:
    report = genposets.corpus_verify(max_n=args.max_n, parallel=args.parallel)
    doc = report.to_json()
    if args.no_timestamp:
        doc.pop("elapsed_s", None)
    lines = []
    for t in report.tallies:
        lines.append(
            f"n={t.n}: {t.posets} posets, {t.sums_of_chains} sums of chains, "
            f"{t.unique_checked} uniqueness verdicts, "
            f"{t.certificates_validated} certificates validated"
        )
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    _emit(args, doc, lines)
    return 0 if report.ok else 1


def cmd_hasse(args) -> int:
    p = _load(args.poset)
    print(posets.hasse_dot(p), end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept: each parse
    returns a new namespace and leaves the parser as it was."""
    top = argparse.ArgumentParser(
        prog="aslattice",
        description="Ideal lattices, polytopes, and straightening relation systems of finite posets.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument(
        "--no-timestamp", action="store_true", help="omit volatile fields from JSON output"
    )
    sub = top.add_subparsers(dest="command", required=True)

    s = sub.add_parser("analyze", help="structural summary of a poset")
    s.add_argument("poset")
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("lattice", help="list all poset ideals")
    s.add_argument("poset")
    s.add_argument("--dot", action="store_true", help="emit the lattice Hasse diagram as DOT")
    s.set_defaults(func=cmd_lattice)

    s = sub.add_parser("vertices", help="vertex list of the order or chain polytope")
    s.add_argument("poset")
    s.add_argument("--polytope", choices=["order", "chain"], required=True)
    s.set_defaults(func=cmd_vertices)

    s = sub.add_parser("relations", help="straightening relation table of one kind")
    s.add_argument("poset")
    s.add_argument("--kind", choices=sorted(KIND_BY_NAME), required=True)
    s.set_defaults(func=cmd_relations)

    s = sub.add_parser("compare", help="do the three canonical systems coincide?")
    s.add_argument("poset")
    s.set_defaults(func=cmd_compare)

    s = sub.add_parser("unique", help="decide uniqueness of a compatible system")
    s.add_argument("poset")
    s.add_argument("--certificate", metavar="OUT.json", help="write the certificate here")
    s.set_defaults(func=cmd_unique)

    s = sub.add_parser("validate-cert", help="replay a uniqueness certificate")
    s.add_argument("certificate")
    s.add_argument("poset")
    s.set_defaults(func=cmd_validate_cert)

    s = sub.add_parser("search", help="enumerate all realizable compatible systems")
    s.add_argument("poset")
    s.add_argument("--max-degree", type=int, default=uniqueness.DEFAULT_MAX_DEGREE)
    s.set_defaults(func=cmd_search)

    s = sub.add_parser("corpus", help="verify the uniqueness equivalence on all small posets")
    s.add_argument("--max-n", type=int, default=genposets.DEFAULT_CORPUS_MAX_N)
    s.add_argument("--parallel", action="store_true")
    s.set_defaults(func=cmd_corpus)

    s = sub.add_parser("hasse", help="poset Hasse diagram as DOT")
    s.add_argument("poset")
    s.set_defaults(func=cmd_hasse)
    return top


def _utf8_stdout() -> None:
    """Print UTF-8 whatever the locale, as input files are read: a console
    stream in another encoding is switched to UTF-8.  A stream that cannot
    be switched, such as the ``StringIO`` of ``redirect_stdout``, holds
    text and is left alone."""
    out = sys.stdout
    if hasattr(out, "reconfigure") and out.encoding.replace("-", "").lower() != "utf8":
        out.reconfigure(encoding="utf-8")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _utf8_stdout()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader left early (``| head``): end quietly with 1,
        # as Python's SIGPIPE recipe does, on a stdout the last flush cannot break
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except AslatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
