"""Byte-identical contract: parse diagnostics and machine output against
values recorded from the 0.2.0 parser and engine, with the ``mc`` outputs
that the exact noise average of 0.3.0 moved recorded again from 0.3.0.

``golden/parse_diagnostics.json`` holds a corpus of malformed netlists with
the ``(line, column, message, severity)`` list the parser wrote for each.
When the rail limit moved from 24 to 63 rails (the int64 mask width),
``rails 25`` and ``rails 0025`` became valid and were recorded again, and
``rails 64`` and ``rails 0064`` were added to reach the capacity message.
``MACHINE_SHA256`` holds the sha256 of ``cli.run``'s machine output for three
small netlists in every dephasing mode at two seeds.
``golden/serialize_canonical.fq`` holds the exact text ``serialize`` wrote,
in 0.6.0, for ``serializer_circuit()``: every element kind with and without
``len=``, both macros, an ``empty`` source, registers, trailing wire, and the
float extremes ``-0.0``, ``5e-324``, ``1e-05``, ``1e16`` and the largest
finite double.
"""

import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from flyqsim.cli import EXIT_OK, RunConfig, run
from flyqsim.gates import (CompositeGate, CoulombCoupler, PhaseShifter,
                           WaveguideCoupler)
from flyqsim.netlist import Circuit, Segment, parse, serialize
from flyqsim.timing import SepSource

GOLDEN = Path(__file__).parent / "golden"
DIAGNOSTIC_CASES = json.loads((GOLDEN / "parse_diagnostics.json").read_text())

# every message the parser writes, as a pattern; the corpus must reach each
PARSER_MESSAGES = [
    r"no rails declared",
    r"no rails declared \(the first statement must be 'rails <n>'\)",
    r"unknown statement '.*'",
    r"duplicate rails declaration",
    r"rail count must be a positive integer, got '.*'",
    r"rail count must be >= 1",
    r"rail count \d+ exceeds the capacity of 63",
    r"invalid rail identifier '.*' \(rails are named q0\.\.q\d+\)",
    r"rail q.* out of range \(rails \d+\)",
    r"expected (delay=<value>ps|phi=<value>rad|lc=<value>um|lt=<value>um), got '.*'",
    r"expected attribute '(delay|phi|lc|lt|chit)', got '.*'",
    r"(delay|phi|lc|lt|chit|len) requires a '(ps|rad|um)' unit suffix, got '.*'",
    r"invalid number '.*' in (delay|phi|lc|lt|chit|len)",
    r"invalid number '.*' in segment length",
    r"segment length requires a 'um' suffix, got '.*'",
    r"segment length must be >= 0",
    r"len must be >= 0",
    r"delay must be >= 0",
    r"lc must be >= 0",
    r"lt must be > 0",
    r"phi must be finite",
    r"chit must be finite",
    r"unexpected token '.*' \(only 'empty' may follow the delay\)",
    r"duplicate source for rail q\d+",
    r"coupler rails must be distinct",
    r"macro rails must be distinct",
    r"invalid register name '.*'",
    r"register rails must be distinct",
    r"duplicate register name '.*'",
    r"rail q\d+ already used by register '.*'",
    r"duplicate detector on rail q\d+",
    r"usage: rails <n>",
    r"usage: segment <rail> <length>um",
    r"usage: sep <rail> delay=<t>ps \[empty\]",
    r"usage: ps <rail> phi=<x>rad \[len=<x>um\]",
    r"usage: bs <railA> <railB> lc=<x>um lt=<x>um \[len=<x>um\]",
    r"usage: cc <railA> <railB> chit=<x>rad \[len=<x>um\]",
    r"usage: hadamard <rail0> <rail1>",
    r"usage: fredkin <control> <t0> <t1>",
    r"usage: dualrail <name> <rail0> <rail1>",
    r"usage: set <rail>",
]


@pytest.mark.parametrize("case", DIAGNOSTIC_CASES,
                         ids=[f"netlist{i}" for i in range(len(DIAGNOSTIC_CASES))])
def test_diagnostics_match_golden(case):
    result = parse(case["text"])
    got = [[d.line, d.column, d.message, d.severity] for d in result.diagnostics]
    assert got == case["diagnostics"]
    assert result.ok == all(d[3] != "error" for d in case["diagnostics"])


def test_golden_corpus_reaches_every_parser_message():
    messages = {d[2] for case in DIAGNOSTIC_CASES for d in case["diagnostics"]}
    unreached = [p for p in PARSER_MESSAGES
                 if not any(re.fullmatch(p, m) for m in messages)]
    assert unreached == []
    unexplained = [m for m in messages
                   if not any(re.fullmatch(p, m) for p in PARSER_MESSAGES)]
    assert unexplained == []


def test_golden_corpus_covers_whitespace_and_digit_variants():
    texts = "".join(case["text"] for case in DIAGNOSTIC_CASES)
    for fragment in ("\t", "\x1f", "\u00a0", "\u3000", "\r\n", "# ", "q\u0663"):
        assert fragment in texts


NETLISTS = {
    "fredkin": """\
rails 3
sep q0 delay=0ps
sep q1 delay=0ps
sep q2 delay=0ps empty
segment q0 2.5um
segment q1 2.5um
segment q2 2.5um
fredkin q0 q1 q2
set q0
set q1
set q2
""",
    "hadamard_pair": """\
rails 4
sep q0 delay=0ps
sep q1 delay=0ps empty
sep q2 delay=0ps
sep q3 delay=0ps empty
dualrail a q0 q1
dualrail b q2 q3
segment q0 4um
segment q1 4um
segment q2 4um
segment q3 4um
hadamard q0 q1
segment q0 1.5um
segment q1 1.5um
segment q2 1.5um
segment q3 1.5um
hadamard q2 q3
cc q1 q2 chit=0.7rad
segment q0 3um
segment q1 3um
segment q2 3um
segment q3 3um
bs q1 q3 lc=0.1um lt=0.28um len=0.4um
ps q0 phi=1.25rad
hadamard q0 q1
hadamard q2 q3
set q0
set q1
set q2
set q3
""",
    "mesh5": """\
rails 5
sep q0 delay=0ps
sep q1 delay=0ps empty
sep q2 delay=0ps
sep q3 delay=0ps empty
sep q4 delay=0ps
segment q0 1um
segment q1 1um
segment q2 1um
segment q3 1um
segment q4 1um
bs q0 q1 lc=0.09um lt=0.28um
bs q2 q3 lc=0.2um lt=0.28um
ps q1 phi=0.4rad
ps q4 phi=2.1rad
bs q1 q2 lc=0.14um lt=0.28um
bs q3 q4 lc=0.05um lt=0.28um
cc q0 q4 chit=1.1rad
bs q0 q4 lc=0.14um lt=0.28um
segment q1 6um
segment q3 6um
bs q1 q3 lc=0.11um lt=0.28um
set q0
set q1
set q2
set q3
set q4
""",
}

MACHINE_SHA256 = {
    ("fredkin", "off", 409): "ceb41797a9cf8b629142b4085ed3bd49d4f03854b6c813cf829c560d5db86213",
    ("fredkin", "off", 611): "d96385891c8a2d1fc415e7d23d32b4768182c7983e4fe040f8ce4a10fa1d844f",
    ("fredkin", "factor", 409): "5a5c4cb34fc9de456143505221d89d680ea0109cfb0db3fc9f6e47adad06c1af",
    ("fredkin", "factor", 611): "6904049ef71b01ab887fc63dc8335e855233faf98f569b897fc867aff0a3203e",
    ("fredkin", "mc", 409): "cce8b9c350ac0eac2aa7fcf30d604bd48f220e96f672b76ee59f45f82d14990f",
    ("fredkin", "mc", 611): "88b0c6dc4991cc3c9e16dbb7c15f180fad6efac4d98e0936ea396352161bdcdf",
    ("hadamard_pair", "off", 409): "6f12bc6a53b771acc358a252308681308ad5487d7539dfc201f7e2c72832b15c",
    ("hadamard_pair", "off", 611): "128b775e9da475891a4a69ab2240bcf7b5bfbeb9944adf5b21d23f824be43d35",
    ("hadamard_pair", "factor", 409): "55166dee23dab84f21bf9b06566f2ab68914ddb4b06138b332edfd9990f2ab25",
    ("hadamard_pair", "factor", 611): "49b6dd3ead01501495360a6e7f547beb9502afa96503676ccc605429861c7f9e",
    ("hadamard_pair", "mc", 409): "89d909d0b821af95f2b50512f995156660ac57bc336bc3f45e3f8a32e22cc0dc",
    ("hadamard_pair", "mc", 611): "fc0ea636f66df9eb61454b49b4515e7eb7455b9e6c6c20fa15c8217e8939c741",
    ("mesh5", "off", 409): "26f78e487af6e7bfac9ea7b5687ccd96e621f9a4d561504d5b2187045294692b",
    ("mesh5", "off", 611): "ad0bce7e6b4010bf723aed9f973275dfb5bc38acbc7e33566386cca33461e1b0",
    ("mesh5", "factor", 409): "b3a5aee697474615cb7bf8d09433416e5be581aad136475f02befcb80ca392c4",
    ("mesh5", "factor", 611): "04107d9f46e3b0eeacbed0681f27476d5e42a6c5659507c1e99cd34570c0e0bf",
    ("mesh5", "mc", 409): "8dff33722c028c2e6b59ab037db187618b7226a4213055a1cc0318bf12af0466",
    ("mesh5", "mc", 611): "14a233b7a9672950451c509ffb266254a850fba16a801c9e62a5df76b3cfc166",
}


@pytest.mark.parametrize("name,mode,seed", sorted(MACHINE_SHA256))
def test_machine_output_matches_golden(tmp_path, name, mode, seed):
    path = tmp_path / f"{name}.fq"
    path.write_text(NETLISTS[name])
    out = io.StringIO()
    config = RunConfig(str(path), shots=2000, seed=seed, dephasing_mode=mode,
                       output_format="machine")
    assert run(config, out=out) == EXIT_OK
    text = out.getvalue().replace(str(path), f"{name}.fq")
    assert hashlib.sha256(text.encode()).hexdigest() == MACHINE_SHA256[name, mode, seed]


BIGGEST = 1.7976931348623157e+308


def serializer_circuit() -> Circuit:
    """A circuit that reaches every branch of ``serialize``."""
    elements = [
        PhaseShifter(0, -0.0),
        PhaseShifter(5, 5e-324, 1e-05),
        WaveguideCoupler((0, 1), 0.14, 0.28),
        WaveguideCoupler((3, 2), 1e16, BIGGEST, -0.0),
        CoulombCoupler((4, 5), -BIGGEST),
        CoulombCoupler((1, 4), 2.0, 5e-324),
        CompositeGate("hadamard", (2, 3)),
        CompositeGate("fredkin", (0, 4, 5)),
        PhaseShifter(3, 1e16),
    ]
    segments = [Segment(0, -0.0, 0), Segment(1, 5e-324, 0),
                Segment(2, 1e-05, 3), Segment(5, 1e16, 6),
                Segment(4, 2.5, 6), Segment(3, BIGGEST, len(elements)),
                Segment(0, 1.0, len(elements))]
    return Circuit(
        n_rails=6, elements=elements, segments=segments,
        sources=[SepSource(0, 0.0), SepSource(1, 1e-05, False),
                 SepSource(4, BIGGEST), SepSource(5, 5e-324, False)],
        detectors=[3, 0, 5],
        registers=[("a", (0, 1)), ("b_2", (3, 2))])


def test_serialize_matches_golden_bytes():
    circuit = serializer_circuit()
    text = serialize(circuit)
    assert text.encode() == (GOLDEN / "serialize_canonical.fq").read_bytes()
    assert parse(text).circuit == circuit
