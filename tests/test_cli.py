import copy
import gc
import hashlib
import json
import logging
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from aslattice import build_poset, certificate_to_json, enumerate_ideals, uniqueness_certificate
from aslattice import cli, ideals, poset_to_json, uniqueness
from aslattice.cli import main
from conftest import CORPUS_FAULTS, TWO_ANTICHAIN_DOC, antichain, certificate_doc, sum_of_chains
from test_uniqueness import mutate_once

V_DOC = {"elements": ["p", "p'", "q"], "covers": [["p", "q"], ["p'", "q"]]}
SOC_DOC = {"elements": ["a", "b", "c"], "covers": [["a", "b"]]}
# labels that DOT quoting and the {a,b} set text must carry through as they are
ESC_DOC = {
    "elements": ['"', "\\", "a,b]", "é"],
    "covers": [['"', "a,b]"], ["\\", "a,b]"], ["\\", "é"]],
}
# labels that the certificate's JSON text escapes
ESCAPED_DOC = {"elements": ["é", 'b"q', "c", "d"], "covers": [["é", 'b"q']]}
LONE_SURROGATE_DOC = {"elements": ["a", "\ud800"], "covers": [["a", "\ud800"]]}
# labels that a % template or str.format would read as fields, and JSON escapes
HOSTILE_DOC = {
    "elements": ["%", "%s", "%%", "{", "}", '"', "\\", "é"],
    "covers": [["%", "%s"], ["%%", "{"], ["{", "}"], ['"', "\\"]],
}


def text(*lines):
    return "".join(line + "\n" for line in lines)


DOT_HEAD = ("  rankdir=BT;", "  node [shape=plaintext];")


@pytest.fixture
def v_file(tmp_path):
    f = tmp_path / "v.json"
    f.write_text(json.dumps(V_DOC))
    return str(f)


@pytest.fixture
def soc_file(tmp_path):
    f = tmp_path / "soc.json"
    f.write_text(json.dumps(SOC_DOC))
    return str(f)


@pytest.fixture
def esc_file(tmp_path):
    f = tmp_path / "esc.json"
    f.write_text(json.dumps(ESC_DOC))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_text(self, capsys, v_file):
        code, out, _ = run(capsys, "analyze", v_file)
        assert code == 0
        assert "elements: 3" in out
        assert "ideals: 5" in out
        assert "sum of chains: False" in out

    def test_json(self, capsys, v_file):
        code, out, _ = run(capsys, "--json", "--no-timestamp", "analyze", v_file)
        doc = json.loads(out)
        assert code == 0
        assert doc["elements"] == 3
        assert doc["ideals"] == 5
        assert doc["sum_of_chains"] is False
        assert "generated_at" not in doc

    def test_maximal_chains_counted_not_listed(self, capsys, tmp_path):
        # 30 levels of two points, each below both points of the next
        levels = [[f"a{i}", f"b{i}"] for i in range(30)]
        covers = [[x, y] for lo, hi in zip(levels, levels[1:]) for x in lo for y in hi]
        f = tmp_path / "ladder.json"
        f.write_text(json.dumps({"elements": sum(levels, []), "covers": covers}))
        code, out, _ = run(capsys, "--json", "--no-timestamp", "analyze", str(f))
        assert code == 0
        assert json.loads(out)["maximal_chains"] == 2**30

    def test_timestamp_present_by_default(self, capsys, v_file):
        _, out, _ = run(capsys, "--json", "analyze", v_file)
        assert "generated_at" in json.loads(out)


class TestLattice:
    def test_list(self, capsys, v_file):
        code, out, _ = run(capsys, "--json", "--no-timestamp", "lattice", v_file)
        doc = json.loads(out)
        assert doc["ideals"] == [[], ["p"], ["p'"], ["p", "p'"], ["p", "p'", "q"]]

    def test_dot(self, capsys, v_file):
        code, out, _ = run(capsys, "lattice", v_file, "--dot")
        assert code == 0
        assert out == text(
            "digraph ideal_lattice {", *DOT_HEAD,
            '  "{}";', '  "{p}";', """  "{p'}";""", """  "{p,p'}";""", """  "{p,p',q}";""",
            '  "{}" -> "{p}";', """  "{}" -> "{p'}";""", """  "{p}" -> "{p,p'}";""",
            """  "{p'}" -> "{p,p'}";""", """  "{p,p'}" -> "{p,p',q}";""",
            "}",
        )

    def test_dot_escapes_labels(self, capsys, esc_file):
        code, out, _ = run(capsys, "lattice", esc_file, "--dot")
        assert code == 0
        assert out == text(
            "digraph ideal_lattice {", *DOT_HEAD,
            '  "{}";', r'  "{\"}";', r'  "{\\}";', r'  "{\",\\}";', r'  "{\\,é}";',
            r'  "{\",\\,a,b]}";', r'  "{\",\\,é}";', r'  "{\",\\,a,b],é}";',
            r'  "{}" -> "{\"}";', r'  "{}" -> "{\\}";', r'  "{\"}" -> "{\",\\}";',
            r'  "{\\}" -> "{\",\\}";', r'  "{\\}" -> "{\\,é}";',
            r'  "{\",\\}" -> "{\",\\,a,b]}";', r'  "{\",\\}" -> "{\",\\,é}";',
            r'  "{\\,é}" -> "{\",\\,é}";', r'  "{\",\\,a,b]}" -> "{\",\\,a,b],é}";',
            r'  "{\",\\,é}" -> "{\",\\,a,b],é}";',
            "}",
        )


class TestVertices:
    def test_order(self, capsys, v_file):
        code, out, _ = run(
            capsys, "--json", "--no-timestamp", "vertices", v_file, "--polytope", "order"
        )
        doc = json.loads(out)
        assert len(doc["vertices"]) == 5
        assert doc["vertices"][0] == ["0", "0", "0"]

    def test_chain(self, capsys, v_file):
        _, out, _ = run(
            capsys, "--json", "--no-timestamp", "vertices", v_file, "--polytope", "chain"
        )
        doc = json.loads(out)
        assert len(doc["vertices"]) == 5


class TestRelations:
    def test_order_kind(self, capsys, v_file):
        _, out, _ = run(
            capsys, "--json", "--no-timestamp", "relations", v_file, "--kind", "order"
        )
        doc = json.loads(out)
        assert doc["entries"] == [{"pair": [["p"], ["p'"]], "rhs": [[], ["p", "p'"]]}]

    def test_chain_dual_kind(self, capsys, v_file):
        _, out, _ = run(
            capsys, "--json", "--no-timestamp", "relations", v_file, "--kind", "chain-dual"
        )
        doc = json.loads(out)
        assert doc["entries"][0]["rhs"] == [[], ["p", "p'", "q"]]


class TestCompare:
    def test_v(self, capsys, v_file):
        code, out, _ = run(capsys, "--json", "--no-timestamp", "compare", v_file)
        doc = json.loads(out)
        assert code == 0
        assert doc["all_equal"] is False
        assert doc["witnesses"][0]["kinds"] == ["order", "chain-dual"]

    def test_soc(self, capsys, soc_file):
        _, out, _ = run(capsys, "--json", "--no-timestamp", "compare", soc_file)
        assert json.loads(out)["all_equal"] is True

    def test_text(self, capsys, v_file):
        code, out, _ = run(capsys, "compare", v_file)
        assert code == 0
        assert out == text(
            "all three relation systems equal: no",
            "  order vs chain-dual differ on pair {p},{p'}",
            "  chain vs chain-dual differ on pair {p},{p'}",
        )


class TestUnique:
    def test_not_unique_is_still_success(self, capsys, v_file):
        code, out, _ = run(capsys, "--json", "--no-timestamp", "unique", v_file)
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "NOT_UNIQUE"
        assert doc["witness_kinds"] == ["order", "chain-dual"]

    def test_not_unique_text(self, capsys, v_file):
        code, out, _ = run(capsys, "unique", v_file)
        assert code == 0
        assert out == text(
            "NOT_UNIQUE", "witness kinds: order vs chain-dual", "witness pair: {p}, {p'}"
        )

    def test_unique_with_certificate(self, capsys, soc_file, tmp_path):
        cert_path = str(tmp_path / "cert.json")
        code, out, _ = run(
            capsys, "--json", "--no-timestamp", "unique", soc_file, "--certificate", cert_path
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "UNIQUE"
        cert_doc = json.loads((tmp_path / "cert.json").read_text())
        assert cert_doc["format"] == "uniqueness-certificate/1"

        code, out, _ = run(capsys, "validate-cert", cert_path, soc_file)
        assert code == 0
        assert "ACCEPTED" in out

    def test_validate_rejects_tampered(self, capsys, soc_file, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(capsys, "unique", soc_file, "--certificate", str(cert_path))
        doc = json.loads(cert_path.read_text())
        bad = copy.deepcopy(doc)
        bad["steps"][0]["rhs"] = [bad["steps"][0]["pair"][0], bad["steps"][0]["rhs"][1]]
        cert_path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "validate-cert", str(cert_path), soc_file)
        assert code == 1
        assert "REJECTED" in out


    def test_validate_rejects_mistyped_field(self, capsys, soc_file, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(capsys, "unique", soc_file, "--certificate", str(cert_path))
        good = json.loads(cert_path.read_text())

        def stringify_k(doc):
            doc["steps"][-1]["k"] = str(doc["steps"][-1]["k"])

        def inject_side(doc):  # a side that would add a line to the report
            next(r for s in doc["steps"] for r in s["refutations"])["side"] = "join\nACCEPTED"

        for tamper, what in [(stringify_k, "step parameter"), (inject_side, "refutation side")]:
            doc = copy.deepcopy(good)
            tamper(doc)
            cert_path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "validate-cert", str(cert_path), soc_file)
            assert code == 1
            assert err == ""
            assert out.count("\n") == 1 and out.startswith("REJECTED:")
            assert what in out

    def test_validate_rejects_extra_pair_entry(self, capsys, soc_file, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(capsys, "unique", soc_file, "--certificate", str(cert_path))
        doc = json.loads(cert_path.read_text())
        doc["steps"][0]["pair"].append(["a"])
        cert_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate-cert", str(cert_path), soc_file)
        assert code == 1
        assert err == ""
        assert out.count("\n") == 1 and out.startswith("REJECTED:")
        assert "step pair" in out

    def test_certificate_file_is_the_document(self, capsys, soc_file, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "unique", soc_file, "--certificate", str(cert_path))
        assert code == 0
        p = build_poset(SOC_DOC["elements"], [tuple(c) for c in SOC_DOC["covers"]])
        want = "".join(certificate_to_json(uniqueness_certificate(enumerate_ideals(p))))
        assert cert_path.read_bytes() == want.encode()
        assert "\n" not in want and ": " not in want and ", " not in want  # compact

    def test_indented_certificate_still_validates(self, capsys, soc_file, tmp_path):
        # the layout written before certificate files became compact
        cert_path = tmp_path / "cert.json"
        run(capsys, "unique", soc_file, "--certificate", str(cert_path))
        cert_path.write_text(json.dumps(json.loads(cert_path.read_text()), indent=2))
        code, out, _ = run(capsys, "validate-cert", str(cert_path), soc_file)
        assert code == 0
        assert out == "ACCEPTED\n"

    def test_no_certificate_document_without_file(self, capsys, monkeypatch, soc_file):
        # without --certificate the JSON document is never built
        want = run(capsys, "unique", soc_file)

        def refuse(cert):
            raise AssertionError("certificate document built without --certificate")

        monkeypatch.setattr(uniqueness, "certificate_to_json", refuse)
        assert run(capsys, "unique", soc_file) == want
        assert want[0] == 0 and want[1].startswith("UNIQUE (")

    def test_peak_memory_bounded(self, capsys, tmp_path):
        # the 7-antichain's 11.5 MB certificate is written as its steps are
        # built: held whole it peaked at 15.5 MB of traced allocations, built
        # step by step at 2.4 MB
        poset_path, cert_path = tmp_path / "a7.json", tmp_path / "a7-cert.json"
        poset_path.write_text(json.dumps({"elements": list(antichain(7).labels), "covers": []}))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "unique", str(poset_path), "--certificate", str(cert_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.startswith("UNIQUE (6069 certified pairs)")
        assert peak < 6_000_000

    def test_unwritable_certificate_path(self, capsys, soc_file, tmp_path):
        cert_path = str(tmp_path / "missing-dir" / "cert.json")
        code, out, err = run(capsys, "unique", soc_file, "--certificate", cert_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write certificate ") and err.count("\n") == 1


@pytest.fixture
def gc_state():
    was_enabled = gc.isenabled()
    yield
    gc.enable() if was_enabled else gc.disable()


class TestCollectorRestored:
    """Every way out of ``validate-cert`` and of ``unique`` leaves the
    cyclic collector as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, capsys, soc_file, tmp_path, gc_state, enabled):
        gc.enable() if enabled else gc.disable()
        cert_path = tmp_path / "cert.json"
        cert, missing = str(cert_path), str(tmp_path / "missing.json")

        def check(want, *argv):
            assert run(capsys, *argv)[0] == want, argv
            assert gc.isenabled() is enabled, argv

        check(0, "unique", soc_file, "--certificate", cert)
        check(0, "validate-cert", cert, soc_file)
        check(2, "unique", missing)
        check(2, "validate-cert", missing, soc_file)
        doc = json.loads(cert_path.read_text())
        doc["steps"][0]["k"] += 1
        cert_path.write_text(json.dumps(doc))
        check(1, "validate-cert", cert, soc_file)


SOC_POSET = build_poset(SOC_DOC["elements"], [tuple(c) for c in SOC_DOC["covers"]])


def _certificate_text(p) -> str:
    return "".join(certificate_to_json(uniqueness_certificate(enumerate_ideals(p))))


def _rekeyed(text, *first):
    """The document with the keys ``first`` first, written by json.dumps."""
    doc = json.loads(text)
    return json.dumps({**{k: doc.pop(k) for k in first}, **doc})


# layout of the certificate text -> (rewrite, whether it is streamed)
LAYOUTS = {
    "compact": (lambda t: t, True),
    "dumps-defaults": (lambda t: json.dumps(json.loads(t)), True),
    "indent-2": (lambda t: json.dumps(json.loads(t), indent=2), True),
    "header-reordered": (lambda t: _rekeyed(t, "covers", "elements", "format"), True),
    "header-key-repeated": (lambda t: '{"format":"other",' + t[1:], True),
    "header-number": (lambda t: '{"size":123456,' + t[1:], True),
    "trailing-newline": (lambda t: t + "\n", True),
    "step-past-one-chunk": (  # whitespace inside the first step
        lambda t: t.replace('"steps":[{', '"steps":[{' + " " * (2 * cli._CHUNK + 1), 1),
        True,
    ),
    "parse-fault": (lambda t: t.replace('"k":1', '"k":"1"', 1), True),
    "replay-fault": (lambda t: t.replace('"k":1', '"k":2', 1), True),
    "steps-first": (lambda t: _rekeyed(t, "steps"), False),
    "steps-repeated": (lambda t: '{"steps":[],' + t[1:], False),
    "key-after-steps": (  # the last "format" is the one json.load keeps
        lambda t: '{"format":"other",' + t[1:-1] + ',"format":"uniqueness-certificate/1"}',
        False,
    ),
}


# the layouts whose steps are the writer's text, accepted without a parse
TEXT_LAYOUTS = {"compact", "header-key-repeated", "header-number", "trailing-newline"}


def _give_way(fh):
    raise cli._WholeDocument


def _text_record(caplog) -> str:
    """``validate-cert``'s one DEBUG record."""
    (got,) = [r.getMessage() for r in caplog.records if r.msg.startswith("validate-cert text")]
    return got


class TestCertificateReader:
    """``validate-cert`` decodes, parses and frees the steps one at a time;
    every layout and every fault gives what the whole-document path gives."""

    @pytest.fixture
    def cert_path(self, tmp_path):
        return tmp_path / "cert.json"

    @pytest.fixture
    def whole_document(self, monkeypatch):
        """``run`` with the stream giving way at once."""

        def run_whole(capsys, *argv):
            with monkeypatch.context() as m:
                m.setattr(cli, "_certificate_stream", _give_way)
                return run(capsys, *argv)

        return run_whole

    @pytest.fixture
    def loaded(self, monkeypatch):
        """The names of the files that ``json.load`` decodes whole."""
        names, load = [], json.load

        def recording(fh, *args, **kwargs):
            names.append(fh.name)
            return load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", recording)
        return names

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_layout_as_whole_document(
        self, capsys, soc_file, cert_path, whole_document, loaded, layout
    ):
        rewrite, streamed = LAYOUTS[layout]
        cert_path.write_text(rewrite(_certificate_text(SOC_POSET)))
        argv = ("--json", "--no-timestamp", "validate-cert", str(cert_path), soc_file)
        want = whole_document(capsys, *argv)
        assert want[0] == (1 if layout.endswith("fault") else 0)
        loaded.clear()
        assert run(capsys, *argv) == want
        assert (str(cert_path) not in loaded) is streamed

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_reads_cut_anywhere(
        self, capsys, caplog, monkeypatch, soc_file, cert_path, whole_document, loaded, chunk
    ):
        # reads this short cut every token somewhere, numbers included, the
        # stream holds wherever it held on whole reads, and the text path
        # accepts exactly the layouts whose steps are the writer's text
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        text = _certificate_text(SOC_POSET)
        argv = ("validate-cert", str(cert_path), soc_file)
        for layout, (rewrite, streamed) in LAYOUTS.items():
            cert_path.write_text(rewrite(text))
            loaded.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="aslattice"):
                got = run(capsys, *argv)
            assert (str(cert_path) not in loaded) is streamed, layout
            accepted = _text_record(caplog).endswith("ACCEPTED without parsing")
            assert accepted is (layout in TEXT_LAYOUTS), layout
            assert got == whole_document(capsys, *argv), layout

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda t: t[: len(t) // 2],
            lambda t: t[:-1],
            lambda t: t + "x",
            lambda t: t + " {}",
            lambda t: "\ufeff" + t,
            lambda t: t.replace('"k":1', '"k":' + "1" * 5_000, 1),
            lambda t: t.replace('"steps":[', '"steps":[' + "[" * 100_000, 1),
            # a parse fault does not hide a decode failure after it
            lambda t: t.replace('"k":1', '"k":"1"', 1) + "x",
            lambda t: t.replace('"format":"', '"format":"other', 1)[:-2],
        ],
        ids=["truncated", "brace-cut", "trailing-garbage", "second-document", "bom",
             "digits", "nesting", "step-fault-then-garbage", "header-fault-then-cut"],
    )
    def test_decode_failure_is_json_loads_message(
        self, capsys, soc_file, cert_path, whole_document, rewrite
    ):
        cert_path.write_text(rewrite(_certificate_text(SOC_POSET)), encoding="utf-8")
        self._assert_json_load_message(capsys, soc_file, cert_path)
        argv = ("validate-cert", str(cert_path), soc_file)
        assert run(capsys, *argv) == whole_document(capsys, *argv)

    def test_bad_utf8_past_first_chunk(self, capsys, soc_file, cert_path):
        head, tail = _certificate_text(SOC_POSET).split('"steps":[', 1)
        pad = " " * (2 * cli._CHUNK)
        cert_path.write_bytes(f'{head}"steps":[{pad}'.encode() + b"\xff" + tail.encode())
        self._assert_json_load_message(capsys, soc_file, cert_path)

    @staticmethod
    def _assert_json_load_message(capsys, soc_file, cert_path):
        try:
            with open(cert_path, encoding="utf-8") as fh:
                json.load(fh)
        except (ValueError, RecursionError) as exc:
            want = f"error: cannot read certificate {cert_path}: {exc}\n"
        else:
            raise AssertionError("json.load decoded the file")
        assert run(capsys, "validate-cert", str(cert_path), soc_file) == (2, "", want)

    def test_compact_file_never_decoded_whole(self, capsys, monkeypatch, soc_file, cert_path):
        run(capsys, "unique", soc_file, "--certificate", str(cert_path))
        load = json.load

        def refuse(fh, *args, **kwargs):
            if fh.name == str(cert_path):
                raise AssertionError("certificate decoded as one document")
            return load(fh, *args, **kwargs)

        monkeypatch.setattr(json, "load", refuse)
        assert run(capsys, "validate-cert", str(cert_path), soc_file) == (0, "ACCEPTED\n", "")

    @pytest.mark.parametrize("doc", [SOC_DOC, ESCAPED_DOC], ids=["plain", "escaped-labels"])
    def test_compact_file_never_parsed(
        self, capsys, caplog, monkeypatch, tmp_path, cert_path, doc
    ):
        # only the header is parsed: no step reaches the parser or the
        # stream's decoder
        poset_path = tmp_path / "p.json"
        poset_path.write_text(json.dumps(doc))
        run(capsys, "unique", str(poset_path), "--certificate", str(cert_path))
        parsed, parse = [], uniqueness.certificate_from_json

        def counting(doc, p):
            def each(steps):
                for step in steps:
                    parsed.append(step)
                    yield step

            return parse({**doc, "steps": each(doc["steps"])}, p)

        def refuse(text, pos):  # the header's values are strings and lists
            obj, end = decode(text, pos)
            if isinstance(obj, dict):
                raise AssertionError("a step decoded")
            return obj, end

        decode = cli._decode
        monkeypatch.setattr(uniqueness, "certificate_from_json", counting)
        monkeypatch.setattr(cli, "_decode", refuse)
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            assert run(capsys, "validate-cert", str(cert_path), str(poset_path)) == (
                0, "ACCEPTED\n", "")
        assert parsed == []
        assert _text_record(caplog).endswith(" steps matched; ACCEPTED without parsing")

    def test_compact_mutants_as_whole_document(self, capsys, tmp_path, cert_path, whole_document):
        # criterion 5's mutants, written compact: the text path accepts none
        rng = random.Random(65537)
        poset_path = tmp_path / "p.json"
        for p in (SOC_POSET, sum_of_chains(2, 1, 1), sum_of_chains(2, 2)):
            poset_path.write_text(json.dumps(poset_to_json(p)))
            doc = certificate_doc(uniqueness_certificate(enumerate_ideals(p)))
            argv = ("--json", "--no-timestamp", "validate-cert", str(cert_path), str(poset_path))
            for _ in range(40):
                cert_path.write_text(json.dumps(mutate_once(doc, rng), separators=(",", ":")))
                got = run(capsys, *argv)
                assert got == whole_document(capsys, *argv)
                assert got[0] == 1

    def test_one_token_edits_as_whole_document(self, capsys, tmp_path, cert_path, whole_document):
        p = sum_of_chains(2, 1, 1)
        poset_path = tmp_path / "p.json"
        poset_path.write_text(json.dumps(poset_to_json(p)))
        text = _certificate_text(p)
        head = text.split('"steps":[')[0] + '"steps":['
        steps = [json.dumps(s, separators=(",", ":")) for s in json.loads(text)["steps"]]
        body = ",".join(steps)
        rng = random.Random(71)

        def at(pattern, replace):
            """The body with one occurrence of ``pattern``, drawn, rewritten."""
            m = rng.choice(list(re.finditer(pattern, body)))
            return body[: m.start()] + replace(m[0]) + body[m.end() :]

        def other(options, x):
            return rng.choice([o for o in options if o != x])

        labels = [f'"{x}"' for x in p.labels]
        edits = {
            "label": lambda: at(r'"c\d_\d"', lambda x: other(labels, x)),
            "k-digit": lambda: at(r'(?<="k":)\d', lambda d: other("0123456789", d)),
            "false-to-true": lambda: at("false", lambda _: "true"),
            "added-space": lambda: at(".", lambda c: rng.choice([" " + c, c + " "])),
            "dropped-last-step": lambda: ",".join(steps[:-1]),
            "extra-step": lambda: ",".join(steps + [rng.choice(steps)]),
        }
        argv = ("validate-cert", str(cert_path), str(poset_path))
        for name, edit in edits.items():
            for _ in range(6):
                edited = edit()
                assert edited != body, name
                cert_path.write_text(head + edited + "]}")
                got = run(capsys, *argv)
                assert got == whole_document(capsys, *argv), name
                assert got[0] == 1 or name == "added-space", name

    @pytest.mark.parametrize(
        "first, later, want",
        [
            ("content", "parse", "step parameter '1' has type str, not int"),
            ("content", "order", "steps do not list the incomparable pairs in certificate order"),
            ("order", "parse", "step parameter '1' has type str, not int"),
        ],
    )
    def test_fault_precedence(
        self, capsys, tmp_path, cert_path, whole_document, first, later, want
    ):
        # two faults in one compact file, the first at step 5: a parse
        # fault wins over an order or content fault anywhere, and an order
        # fault over a content fault
        p = antichain(4)
        poset_path = tmp_path / "p.json"
        poset_path.write_text(json.dumps(poset_to_json(p)))
        doc = json.loads(_certificate_text(p))
        steps = doc["steps"]
        edits = {
            "content": lambda s: s.update(k=s["k"] + 1),
            "parse": lambda s: s.update(k="1"),
            "order": lambda s: s.update(pair=s["pair"][::-1]),
        }
        edits[first](steps[5])
        edits[later](steps[40])
        cert_path.write_text(json.dumps(doc, separators=(",", ":")))
        argv = ("validate-cert", str(cert_path), str(poset_path))
        got = run(capsys, *argv)
        assert got == (1, f"REJECTED: {want}\n", "")
        assert got == whole_document(capsys, *argv)

    @pytest.mark.parametrize("edit", ["last-false-flipped", "middle-k-changed"])
    def test_file_read_once(
        self, capsys, caplog, monkeypatch, tmp_path, cert_path, whole_document, edit
    ):
        # the file is opened once, the steps before the first that differs
        # are matched as text and never decoded, and decoding begins there
        p = antichain(4)
        poset_path = tmp_path / "p.json"
        poset_path.write_text(json.dumps(poset_to_json(p)))
        head, *steps, tail = certificate_to_json(uniqueness_certificate(enumerate_ideals(p)))
        if edit == "last-false-flipped":
            at = max(i for i, s in enumerate(steps) if "false" in s)
            i = steps[at].rindex("false")
            steps[at] = steps[at][:i] + "true" + steps[at][i + 5 :]
        else:
            at = len(steps) // 2
            steps[at] = re.sub(r'"k":(\d+)', lambda m: f'"k":{int(m[1]) + 1}', steps[at])
        cert_path.write_text(head + "".join(steps) + tail)
        argv = ("validate-cert", str(cert_path), str(poset_path))
        want = whole_document(capsys, *argv)
        assert want[0] == 1

        opened, decoded, decode = [], [], cli._decode

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        def counting_decode(text, pos):
            obj, end = decode(text, pos)
            if isinstance(obj, dict):
                decoded.append(obj)
            return obj, end

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        monkeypatch.setattr(cli, "_decode", counting_decode)
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            assert run(capsys, *argv) == want
        assert opened.count(str(cert_path)) == 1
        assert decoded == [json.loads(s.removeprefix(",")) for s in steps[at:]]
        assert _text_record(caplog) == (
            f"validate-cert text: {at} steps matched; decoding began at step {at}")

    def test_hostile_labels_accepted_as_text(self, capsys, caplog, tmp_path, cert_path):
        # the writer's text of a built certificate is the record writer's
        # text of its steps, and validate-cert takes all of it as text
        p = build_poset(HOSTILE_DOC["elements"], [tuple(c) for c in HOSTILE_DOC["covers"]])
        built = uniqueness_certificate(enumerate_ideals(p))
        text = "".join(certificate_to_json(built))
        held = uniqueness.UniquenessCertificate(poset=p, steps=tuple(built.steps))
        assert text == "".join(certificate_to_json(held))
        assert "%%" in text and "{" in text
        poset_path = tmp_path / "hostile.json"
        poset_path.write_text(json.dumps(HOSTILE_DOC))
        assert run(capsys, "unique", str(poset_path), "--certificate", str(cert_path))[0] == 0
        assert cert_path.read_text() == text
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            assert run(capsys, "validate-cert", str(cert_path), str(poset_path)) == (
                0, "ACCEPTED\n", "")
        steps = len(built.steps)
        assert _text_record(caplog) == (
            f"validate-cert text: {steps} steps matched; ACCEPTED without parsing")

    @pytest.mark.parametrize(
        "field, edit, reason",
        [
            ("swapped", lambda r: r.update(swapped=not r["swapped"]),
             "witness elements differ from the deterministic choice"),
            ("prior_pair", lambda r: r.update(prior_pair=r["prior_pair"][::-1]),
             "stored prior pair mismatch"),
            ("collision", lambda r: r["collision"][1].__setitem__(2, r["collision"][1][1]),
             "collision monomials differ from the replayed ones"),
        ],
        ids=["swapped", "prior-pair", "collision"],
    )
    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
    def test_late_fault_in_a_planned_union(
        self, capsys, tmp_path, cert_path, whole_document, field, edit, reason, indent
    ):
        # one field of a late step's join-side refutation changed, where an
        # earlier valid step has the same union, so replay already planned
        # it: read as text up to that step (compact) or as records from the
        # first (indented), the step gets its field-by-field reason
        p = antichain(4)
        poset_path = tmp_path / "p.json"
        poset_path.write_text(json.dumps(poset_to_json(p)))
        doc = json.loads(_certificate_text(p))
        unions = [frozenset(a) | frozenset(b) for a, b in (s["pair"] for s in doc["steps"])]
        at = max(i for i, s in enumerate(doc["steps"]) if unions[i] in unions[:i]
                 and any(r["side"] == "join" for r in s["refutations"]))
        assert (at, len(unions)) == (48, 55)
        edit(next(r for r in doc["steps"][at]["refutations"] if r["side"] == "join"))
        cert_path.write_text(json.dumps(doc, indent=indent, separators=None if indent else (",", ":")))
        argv = ("validate-cert", str(cert_path), str(poset_path))
        got = run(capsys, *argv)
        assert got == (1, f"REJECTED: step {at} (join side): {reason}\n", "")
        assert got == whole_document(capsys, *argv)

    @staticmethod
    def _a6_peak(capsys, tmp_path, rewrite=lambda t: t):
        """``validate-cert``'s result and peak of traced allocations on the
        6-antichain's certificate, rewritten by ``rewrite``."""
        p = antichain(6)
        poset_path, cert_path = tmp_path / "a6.json", tmp_path / "a6-cert.json"
        poset_path.write_text(json.dumps({"elements": list(p.labels), "covers": []}))
        cert_path.write_text(rewrite(_certificate_text(p)))
        tracemalloc.start()
        try:
            result = run(capsys, "validate-cert", str(cert_path), str(poset_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_peak_memory_bounded(self, capsys, tmp_path):
        # the 6-antichain's 1.7 MB certificate: decoded whole it peaked at
        # 22 MB of traced allocations, parsed whole at 3 MB, read as text at
        # 0.5 MB
        result, peak = self._a6_peak(capsys, tmp_path)
        assert result == (0, "ACCEPTED\n", "")
        assert peak < 2_000_000

    @pytest.mark.parametrize(
        "rewrite, want",
        [
            (lambda t: json.dumps(json.loads(t), indent=2), (0, "ACCEPTED\n", "")),
            (
                lambda t: t[: t.rindex("false")] + "true" + t[t.rindex("false") + 5 :],
                (1, "REJECTED: step 1350 (meet side): witness elements differ from the "
                    "deterministic choice\n", ""),
            ),
        ],
        ids=["indented", "last-false-flipped"],
    )
    def test_peak_memory_bounded_read_as_records(self, capsys, tmp_path, rewrite, want):
        # steps read as records are decoded, parsed and replayed one at a
        # time, under the bound of the file read as text
        result, peak = self._a6_peak(capsys, tmp_path, rewrite)
        assert result == want
        assert peak < 2_000_000


class TestSearch:
    def test_v(self, capsys, v_file):
        code, out, _ = run(capsys, "--json", "--no-timestamp", "search", v_file)
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 2
        assert doc["exhausted"] is True

    def test_antichain5_json_pinned(self, capsys, tmp_path):
        # the same systems in the same order, byte for byte
        f = tmp_path / "a5.json"
        f.write_text(json.dumps({"elements": list("abcde"), "covers": []}))
        code, out, _ = run(capsys, "--json", "--no-timestamp", "search", str(f))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dd4e550e7c2dcb40643e99aab9aa421c65f896af574b043f57530d91b803acbb"
        )

    @pytest.mark.parametrize("degree, digest", [
        ("3", "33fd80275613aeeb96615bb5098ce4426061cf4286cfc61b431ecc1f2fd96f70"),
        ("4", "f0edde0f2e50e250198f2fb02c0546d0cfe754bf64536166591251ef0da9cc67"),
    ])
    def test_k33_json_pinned_under_debug_log(self, capsys, caplog, tmp_path, degree, digest):
        # K3,3's 28 systems byte for byte, as before the search logged, with
        # its DEBUG record captured and kept off stdout and stderr
        f = tmp_path / "k33.json"
        covers = [[m, t] for m in "abc" for t in "xyz"]
        f.write_text(json.dumps({"elements": list("abcxyz"), "covers": covers}))
        with caplog.at_level(logging.DEBUG, logger="aslattice"):
            code, out, err = run(capsys, "--json", "--no-timestamp", "search", str(f),
                                 "--max-degree", degree)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert [r.msg.split(":")[0] for r in caplog.records] == ["search"]

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # stdout is a pipe whose read end is already closed, as when the
        # reader (``| head``) has exited: status 1 and nothing on stderr
        f = tmp_path / "k33.json"
        covers = [[m, t] for m in "abc" for t in "xyz"]
        f.write_text(json.dumps({"elements": list("abcxyz"), "covers": covers}))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "aslattice.cli", "--json", "--no-timestamp", "search",
                 str(f)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize("degree", ["2", "3", "4"])
    def test_text_names_the_degree_bound(self, capsys, v_file, degree):
        code, out, _ = run(capsys, "search", v_file, "--max-degree", degree)
        assert code == 0
        assert out == (
            f"realizable compatible systems: 2 (candidate space exhausted up to degree {degree})\n"
        )

    def test_budget_one_line(self, capsys, monkeypatch, tmp_path):
        # the 3-antichain's search makes 37 tests, so a budget of 1 is exceeded
        f = tmp_path / "anti.json"
        f.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": []}))
        monkeypatch.setattr(uniqueness, "MAX_SEARCH_TESTS", 1)
        code, out, err = run(capsys, "search", str(f))
        assert code == 2
        assert out == ""
        assert err == "error: search exceeded 1 push-and-collide tests; raise the budget\n"

    @pytest.mark.parametrize("degree", ["0", "1", "-3"])
    def test_degree_below_two_rejected(self, capsys, tmp_path, degree):
        # a degree-0 search once reported 64 systems on the 3-antichain
        f = tmp_path / "anti.json"
        f.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": []}))
        code, out, err = run(capsys, "search", str(f), "--max-degree", degree)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--max-degree" in err


class TestCorpus:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "--json", "--no-timestamp", "corpus", "--max-n", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["ok"] is True
        assert [t["posets"] for t in doc["per_n"]] == [1, 2, 5]

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one_rejected(self, capsys, max_n):
        code, out, err = run(capsys, "corpus", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_max_n_above_cap_rejected(self, capsys):
        code, out, err = run(capsys, "corpus", "--max-n", "9")
        assert code == 2
        assert out == ""
        assert err == "error: corpus verification supports 1..8 elements\n"

    @pytest.mark.parametrize("fault, detail", CORPUS_FAULTS)
    def test_counterexample_exits_1(self, capsys, monkeypatch, fault, detail):
        fault(monkeypatch)
        code, out, err = run(capsys, "--json", "--no-timestamp", "corpus", "--max-n", "2")
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["counterexamples"] == [{**TWO_ANTICHAIN_DOC, "detail": detail}]

    def test_max_n_7_json_pinned(self, capsys):
        # the same report, tallies and counterexamples, byte for byte
        code, out, _ = run(capsys, "--json", "--no-timestamp", "corpus", "--max-n", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4f5a1acc4e3508643d95b76aba2c3e0b0df9167cc6e6de4043d91492d59ec07e"
        )


class TestHasse:
    def test_dot(self, capsys, v_file):
        code, out, _ = run(capsys, "hasse", v_file)
        assert code == 0
        assert out == text(
            "digraph hasse {", *DOT_HEAD,
            '  "p";', """  "p'";""", '  "q";', '  "p" -> "q";', """  "p'" -> "q";""",
            "}",
        )

    def test_dot_escapes_labels(self, capsys, esc_file):
        code, out, _ = run(capsys, "hasse", esc_file)
        assert code == 0
        assert out == text(
            "digraph hasse {", *DOT_HEAD,
            r'  "\"";', r'  "\\";', '  "a,b]";', '  "é";',
            r'  "\"" -> "a,b]";', r'  "\\" -> "a,b]";', r'  "\\" -> "é";',
            "}",
        )


UNREADABLE = [
    pytest.param(b"\xff\xfe", id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-past-recursion-limit"),
]
if hasattr(sys, "get_int_max_str_digits"):  # Python 3.11+ limits int literals to 4,300 digits
    UNREADABLE.append(pytest.param(b"1" * 5_000, id="int-past-digit-limit"))


class TestParserKept:
    """The argument parser is built once per process; no call's options
    reach the next call."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_json_then_text(self, capsys, v_file):
        code, out, _ = run(capsys, "--json", "analyze", v_file)
        assert code == 0
        assert json.loads(out)["elements"] == 3
        code, out, _ = run(capsys, "analyze", v_file)
        assert code == 0
        assert "elements: 3" in out
        assert not out.startswith("{")

    def test_certificate_option_not_kept(self, capsys, soc_file, tmp_path):
        cert = tmp_path / "c.json"
        code, out, _ = run(capsys, "unique", soc_file, "--certificate", str(cert))
        assert code == 0
        assert "certificate written to" in out
        cert.unlink()
        code, out, _ = run(capsys, "unique", soc_file)
        assert code == 0
        assert "certificate written to" not in out
        assert not cert.exists()

    def test_usage_error_then_command(self, capsys, v_file):
        with pytest.raises(SystemExit) as exc:
            main(["vertices", v_file])  # missing required --polytope
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "vertices", v_file, "--polytope", "order")
        assert code == 0
        assert out


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/poset.json")
        assert code == 2
        assert "cannot read" in err

    def test_invalid_poset(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "zzz"]]}))
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert "error" in err

    def test_ideal_capacity_one_line(self, capsys, monkeypatch, v_file):
        # the V has 5 ideals; lower the bound the CLI enumerates under to 4
        monkeypatch.setattr(ideals, "MAX_IDEALS", 4)
        code, out, err = run(capsys, "analyze", v_file)
        assert code == 2
        assert out == ""
        assert err == "error: ideal count exceeds capacity bound of 4 ideals\n"

    def test_certificate_budget_one_line(self, capsys, tmp_path):
        # antichain(10): 6,796,020 refutations, refused before any is built
        f = tmp_path / "a10.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(10)], "covers": []}))
        code, out, err = run(capsys, "unique", str(f))
        assert code == 2
        assert out == ""
        assert err == (
            "error: uniqueness certificate would hold 6,796,020 refutations, "
            "over the budget of 500,000\n"
        )

    def test_relation_pair_bound_one_line(self, capsys, tmp_path):
        # antichain(12): 4,096 ideals, refused before the pair table is listed
        f = tmp_path / "a12.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(12)], "covers": []}))
        code, out, err = run(capsys, "relations", str(f), "--kind", "order")
        assert code == 2
        assert out == ""
        assert err == (
            "error: relation table over 4,096 ideals has 8,386,560 pairs, "
            "over the bound of 1,000,000\n"
        )

    def test_multichain_bound_one_line(self, capsys, tmp_path):
        # antichain(5) at degree 30: 31^5 multichains, refused before listing
        f = tmp_path / "a5.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(5)], "covers": []}))
        code, out, err = run(capsys, "search", str(f), "--max-degree", "30")
        assert code == 2
        assert out == ""
        assert err == (
            "error: 28,629,151 multichains of length 30 over 32 ideals, "
            "over the bound of 1,000,000\n"
        )

    @pytest.mark.parametrize(
        "n, degree, entries",
        [(1, "1500", "1,127,250,998"), (3, "60", "172,341,950")],
        ids=["point-1500", "antichain3-60"],
    )
    def test_multichain_entries_bound_one_line(self, capsys, tmp_path, n, degree, entries):
        # every single length passes; the entries across lengths 2..degree do not
        f = tmp_path / "a.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(n)], "covers": []}))
        code, out, err = run(capsys, "search", str(f), "--max-degree", degree)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: multichains of lengths 2..{degree} over {2**n} ideals hold {entries} "
            "entries, over the bound of 4,000,000\n"
        )

    @pytest.mark.parametrize(
        "degree, least",
        [("10000000", "50,000,004,999,999"), ("100000000", "5,000,000,049,999,999")],
        ids=["1e7", "1e8"],
    )
    def test_unbounded_degree_one_line(self, capsys, tmp_path, monkeypatch, degree, least):
        # refused before the lattice's ⊆-table is read: one pass over it per
        # unit of length took 14 s and 401 MB at degree 10,000,000
        def unread(lat):
            raise AssertionError("the ⊆-table was read")

        monkeypatch.setattr(ideals.IdealLattice, "containing", property(unread))
        f = tmp_path / "a1.json"
        f.write_text(json.dumps({"elements": ["a"], "covers": []}))
        code, out, err = run(capsys, "search", str(f), "--max-degree", degree)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: multichains of lengths 2..{degree} hold at least {least} entries, "
            "one chain of each length, over the bound of 4,000,000\n"
        )

    def test_search_ideal_bound_one_line(self, capsys, tmp_path):
        # antichain(7): 128 ideals, refused before any multichain is listed
        f = tmp_path / "a7.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(7)], "covers": []}))
        code, out, err = run(capsys, "search", str(f))
        assert code == 2
        assert out == ""
        assert err == "error: lattice has 128 ideals, over the search bound of 125\n"

    @pytest.mark.parametrize("command", ["compare", "analyze"])
    def test_pair_bound_covers_compare_and_analyze(self, capsys, tmp_path, command):
        # the bound sits on the pair list itself, so these are refused too
        f = tmp_path / "a12.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(12)], "covers": []}))
        code, out, err = run(capsys, command, str(f))
        assert code == 2
        assert out == ""
        assert err == (
            "error: relation table over 4,096 ideals has 8,386,560 pairs, "
            "over the bound of 1,000,000\n"
        )

    def test_cycle_rejected(self, capsys, tmp_path):
        f = tmp_path / "cyc.json"
        f.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}))
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"elements": "abc"},
            {"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]},
            {"elements": ["a", "b"], "covers": [["a"]]},
            {"elements": ["a", "b"], "covers": "ab"},
            {"elements": [1, 2], "covers": [[1, 2]]},
            {"elements": ["a", None]},
            {"elements": ["a", "b"], "covers": [[["a"], "b"]]},
            LONE_SURROGATE_DOC,
        ],
    )
    def test_malformed_poset_one_line(self, capsys, tmp_path, doc):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["lattice", "hasse"])
    def test_unprintable_label_one_line(self, capsys, tmp_path, command):
        # each would print the label, which cannot be encoded
        f = tmp_path / "surrogate.json"
        f.write_text(json.dumps(LONE_SURROGATE_DOC))
        code, out, err = run(capsys, command, str(f))
        assert code == 2
        assert out == ""
        assert err == "error: element label '\\ud800' is not valid Unicode text\n"

    @pytest.mark.parametrize("content", UNREADABLE)
    @pytest.mark.parametrize(
        "command, what", [("unique", "poset file"), ("validate-cert", "certificate")]
    )
    def test_unreadable_input(self, capsys, soc_file, tmp_path, command, what, content):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        argv = [str(f)] if command == "unique" else [str(f), soc_file]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {what} ") and err.count("\n") == 1

    def test_utf8_input_under_ascii_locale(self, tmp_path):
        f = tmp_path / "e.json"
        doc = {"elements": ["é", 'b"q', "c", "d"], "covers": [["é", 'b"q']]}
        f.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = dict(
            os.environ,
            LC_ALL="C",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
            PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "aslattice.cli", "unique", str(f)],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == b"UNIQUE"

    @pytest.mark.parametrize(
        "command",
        [["lattice"], ["hasse"], ["relations", "--kind", "chain"], ["compare"]],
        ids=["lattice", "hasse", "relations", "compare"],
    )
    def test_utf8_output_under_ascii_locale(self, capsys, tmp_path, command):
        # the same bytes as the in-process text, encoded as UTF-8; the V
        # shape makes compare print a witness pair
        f = tmp_path / "e.json"
        doc = {"elements": ["é", 'b"q', "c"], "covers": [["é", "c"], ['b"q', "c"]]}
        f.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        _, out, _ = run(capsys, command[0], str(f), *command[1:])
        env = dict(
            os.environ,
            LC_ALL="C",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
            PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "aslattice.cli", command[0], str(f), *command[1:]],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "é" in out
        assert proc.stdout == out.encode("utf-8")

    def test_usage_error(self, capsys, v_file):
        with pytest.raises(SystemExit) as exc:
            main(["vertices", v_file])  # missing required --polytope
        assert exc.value.code == 2

    def test_byte_identical_output(self, capsys, v_file):
        _, out1, _ = run(capsys, "--json", "--no-timestamp", "unique", v_file)
        _, out2, _ = run(capsys, "--json", "--no-timestamp", "unique", v_file)
        assert out1 == out2
