import dataclasses
import hashlib
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flyqsim import budget, cli, timing
from flyqsim.cli import EXIT_DESYNC, EXIT_OK, EXIT_PARSE, RunConfig, main, run

FREDKIN_SWAP_INPUT = """\
rails 3
sep q0 delay=0ps
sep q1 delay=0ps
sep q2 delay=0ps empty
fredkin q0 q1 q2
set q0
set q1
set q2
"""

DESYNCED = """\
rails 2
sep q0 delay=0ps
sep q1 delay=0ps
segment q0 1um
cc q0 q1 chit=0.5rad
set q0
set q1
"""

COMPENSATED = DESYNCED.replace("sep q1 delay=0ps", "sep q1 delay=10ps")

TWICE_DESYNCED = DESYNCED.replace("set q0", "segment q1 3um\ncc q0 q1 chit=0.25rad\nset q0")


def run_cli(netlist_text, tmp_path, **overrides):
    path = tmp_path / "circuit.fq"
    path.write_text(netlist_text)
    out = io.StringIO()
    config = RunConfig(input_path=str(path), **overrides)
    code = run(config, out=out)
    return code, out.getvalue()


def counts_from_machine(text):
    return {m.group(1): int(m.group(2))
            for m in re.finditer(r"^count (\d+) (\d+)$", text, re.M)}


def test_fredkin_swaps_target(tmp_path):
    code, text = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=10_000, seed=42,
                         output_format="machine")
    assert code == EXIT_OK
    counts = counts_from_machine(text)
    # control and first target loaded: electron ends on the second target
    assert counts == {"101": 10_000}


def test_machine_output_byte_identical(tmp_path):
    _, first = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=1000, seed=42,
                       output_format="machine")
    _, second = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=1000, seed=42,
                        output_format="machine")
    assert first == second


def test_desynchronized_circuit_exits_3(tmp_path):
    code, text = run_cli(DESYNCED, tmp_path, shots=10)
    assert code == EXIT_DESYNC
    assert "coincidence violation" in text
    assert "cc q0 q1" in text


def test_compensating_delay_fixes_schedule(tmp_path):
    code, text = run_cli(COMPENSATED, tmp_path, shots=10,
                         output_format="machine")
    assert code == EXIT_OK
    assert "coincidence=ok" in text


def test_allow_desync_override(tmp_path):
    code, text = run_cli(DESYNCED, tmp_path, shots=10, allow_desync=True,
                         output_format="machine")
    assert code == EXIT_OK
    assert "coincidence=override" in text


@pytest.mark.parametrize("allow_desync, exit_code",
                         [(True, EXIT_OK), (False, EXIT_DESYNC)])
def test_each_violation_printed_once(tmp_path, allow_desync, exit_code):
    code, text = run_cli(TWICE_DESYNCED, tmp_path, shots=10,
                         allow_desync=allow_desync, output_format="machine")
    assert code == exit_code
    lines = [line for line in text.splitlines()
             if line.startswith("coincidence violation:")]
    assert len(lines) == len(set(lines)) == 2
    assert ("element 0 (cc q0 q1)" in lines[0]
            and "element 1 (cc q0 q1)" in lines[1])
    if allow_desync:
        assert "coincidence=override" in text
    else:
        assert "schedule rejected: 2 violation(s)" in text


SKEWED_FREDKIN = """\
rails 3
sep q0 delay=0ps
sep q1 delay=0ps
sep q2 delay=0ps empty
segment q0 3um
segment q1 2um
cc q0 q1 chit=0.5rad
segment q1 1.5um
fredkin q0 q1 q2
set q0
set q1
set q2
"""

SKEWED_FREDKIN_VIOLATIONS = [
    "coincidence violation: element 0 (cc q0 q1): |dt| = 10 ps (q0@30ps, q1@20ps)",
    "coincidence violation: element 2 (bs q1 q2): |dt| = 35 ps (q1@35ps, q2@0ps)",
    "coincidence violation: element 4 (cc q0 q1): |dt| = 5 ps (q0@30ps, q1@35ps)",
    "coincidence violation: element 5 (bs q1 q2): |dt| = 35 ps (q1@35ps, q2@0ps)",
]


@pytest.mark.parametrize("output_format", ["human", "machine"])
def test_violation_text_is_exact(tmp_path, output_format):
    # elements are numbered after macro expansion; a rail's arrival is its
    # delay plus its upstream wire over the default 0.1 um/ps
    code, text = run_cli(SKEWED_FREDKIN, tmp_path, shots=10,
                         output_format=output_format)
    assert code == EXIT_DESYNC
    assert text.splitlines() == SKEWED_FREDKIN_VIOLATIONS + [
        "schedule rejected: 4 violation(s); rerun with --allow-desync to override"]
    code, text = run_cli(SKEWED_FREDKIN, tmp_path, shots=10, allow_desync=True,
                         output_format=output_format)
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[:4] == SKEWED_FREDKIN_VIOLATIONS
    assert not any(line.startswith("coincidence violation:") for line in lines[4:])
    if output_format == "machine":
        assert "coincidence=override" in lines


def test_parse_error_exits_2(tmp_path):
    code, text = run_cli("rails 2\nbs q0 q0 lc=0.14um lt=0.28um\n", tmp_path)
    assert code == EXIT_PARSE
    assert "coupler rails must be distinct" in text
    assert ":2:" in text  # line number reported


def test_missing_file_exits_2(tmp_path):
    out = io.StringIO()
    code = run(RunConfig(input_path=str(tmp_path / "nope.fq")), out=out)
    assert code == EXIT_PARSE
    assert "cannot read" in out.getvalue()


def test_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "latin1.fq"
    path.write_bytes("rails 2\n# caf\u00e9\n".encode("latin-1"))
    out = io.StringIO()
    code = run(RunConfig(input_path=str(path)), out=out)
    assert code == EXIT_PARSE
    assert out.getvalue().startswith(f"error: cannot read {path}: ")


def test_missing_source_exits_2(tmp_path):
    text = "rails 2\nsep q0 delay=0ps\ncc q0 q1 chit=0.5rad\n"
    code, output = run_cli(text, tmp_path)
    assert code == EXIT_PARSE
    assert "needs a source" in output


def wide_superposed_netlist(n_qubits=9):
    """Dual-rail qubits in superposition, then wire on every rail, then a
    coupler between each two neighbouring registers: one group of rails, so
    the run's block is the whole sector."""
    n_rails = 2 * n_qubits
    lines = [f"rails {n_rails}"]
    lines += [f"sep q{r} delay=0ps" + ("" if r % 2 == 0 else " empty")
              for r in range(n_rails)]
    lines += [f"hadamard q{r} q{r + 1}" for r in range(0, n_rails, 2)]
    lines += [f"segment q{r} 3um" for r in range(n_rails)]
    lines += [f"hadamard q{r} q{r + 1}" for r in range(0, n_rails, 2)]
    lines += [f"bs q{r} q{r + 1} lc=0.07um lt=0.28um" for r in range(1, n_rails - 1, 2)]
    return "\n".join(lines) + "\n"


def test_mc_run_above_the_capacity_exits_2(tmp_path):
    code, output = run_cli(wide_superposed_netlist(), tmp_path, shots=10,
                           dephasing_mode="mc")
    assert code == EXIT_PARSE
    assert output.count("\n") == 1
    assert output.startswith("error: the exact monte-carlo average needs a ")
    assert "cap of 2^24 amplitudes" in output and "--dephasing factor" in output
    code, _ = run_cli(wide_superposed_netlist(), tmp_path, shots=10,
                      dephasing_mode="factor")
    assert code == EXIT_OK


def test_mc_run_of_unlinked_registers_runs(tmp_path):
    # without the linking couplers each register is a group of its own: the
    # run holds the 2^9 masks that keep one electron in each
    text = "".join(line for line in wide_superposed_netlist().splitlines(True)
                   if not line.startswith("bs "))
    code, output = run_cli(text, tmp_path, shots=10, dephasing_mode="mc",
                           output_format="machine")
    assert code == EXIT_OK
    assert "coincidence=ok\n" in output
    assert sum(counts_from_machine(output).values()) == 10


def test_human_and_machine_counts_agree(tmp_path):
    code, machine = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=500, seed=7,
                            output_format="machine")
    assert code == EXIT_OK
    code, human = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=500, seed=7,
                          output_format="human")
    assert code == EXIT_OK
    machine_counts = counts_from_machine(machine)
    human_counts = {m.group(1): int(m.group(2))
                    for m in re.finditer(r"^  (\d{3})\s+(\d+)\s", human, re.M)}
    assert human_counts == machine_counts


def test_logical_outcomes_reported(tmp_path):
    text = """\
rails 2
sep q0 delay=0ps
sep q1 delay=0ps empty
dualrail a q0 q1
hadamard q0 q1
set q0
set q1
"""
    code, out = run_cli(text, tmp_path, shots=2000, seed=3,
                        output_format="machine")
    assert code == EXIT_OK
    logical = {m.group(1): int(m.group(2))
               for m in re.finditer(r"^logical (\S+) (\d+)$", out, re.M)}
    assert set(logical) == {"0", "1"}
    assert sum(logical.values()) == 2000
    assert "leak_count=0" in out


def test_budget_lines_present(tmp_path):
    _, out = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=10,
                     output_format="machine")
    assert "budget_feasible_gates=30" in out
    assert re.search(r"^budget_max_um=", out, re.M)


def test_main_entry_point(tmp_path, capsys):
    path = tmp_path / "c.fq"
    path.write_text(FREDKIN_SWAP_INPUT)
    code = main([str(path), "--shots", "50", "--seed", "1",
                 "--format", "machine"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "count 101 50" in captured.out


def test_the_command_line_is_run_configs_fields_with_their_defaults():
    parser = cli.build_arg_parser()
    args = vars(parser.parse_args(["c.fq"]))
    assert set(args) == {f.name for f in dataclasses.fields(RunConfig) if f.init}
    assert RunConfig(**args) == RunConfig("c.fq")
    every_flag = parser.parse_args([
        "c.fq", "--shots", "5", "--seed", "2", "--dephasing", "mc",
        "--lphi", "12", "--velocity", "0.2", "--window", "3",
        "--gate-length", "0.5", "--format", "machine", "--allow-desync"])
    assert RunConfig(**vars(every_flag)) == RunConfig(
        "c.fq", shots=5, seed=2, dephasing_mode="mc", l_phi=12.0,
        velocity=0.2, window=3.0, gate_length=0.5, output_format="machine",
        allow_desync=True)


def test_dephasing_modes_are_named_by_one_table(tmp_path):
    # the --dephasing choices, RunConfig's names and the header's
    # dephasing= line are timing's table; DephasingModel also takes the
    # long names, RunConfig does not
    parser = cli.build_arg_parser()
    (choices,) = [action.choices for action in parser._actions
                  if action.dest == "dephasing_mode"]
    assert choices == list(timing.MODE_NAMES) == ["off", "factor", "mc"]
    for name, mode in timing.MODE_NAMES.items():
        code, text = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=10,
                             dephasing_mode=name, output_format="machine")
        assert code == EXIT_OK
        assert f"\ndephasing={name}\n" in text
        assert RunConfig("x", dephasing_mode=name).dephasing.mode == mode
    for spelling in ("monte-carlo", "MC"):
        with pytest.raises(ValueError, match="^unknown dephasing mode"):
            RunConfig(input_path="x", dephasing_mode=spelling)
    assert timing.DephasingModel(mode="monte-carlo").mode == timing.MODE_MC


def test_main_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "c.fq"
    path.write_text(FREDKIN_SWAP_INPUT)
    assert main([str(path), "--shots", "0"]) == EXIT_PARSE
    assert main([str(path), "--seed", "-5"]) == EXIT_PARSE
    # the models' own checks, with their messages
    assert main([str(path), "--lphi", "0"]) == EXIT_PARSE
    assert capsys.readouterr().err.endswith("error: l_phi must be > 0, got 0.0\n")
    # rejected at config time, not by the budget after the simulation
    for value in ("0", "-1", "nan"):
        assert main([str(path), "--gate-length", value]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gate_length must be > 0")
        assert captured.out == ""


@pytest.mark.parametrize("flags", [["--lphi", "inf"],
                                   ["--lphi", "1e308", "--gate-length", "1e-10"]])
def test_main_refuses_a_budget_ratio_that_is_not_finite(tmp_path, capsys,
                                                        monkeypatch, flags):
    # the budget's floor(l_phi / gate_length) would overflow after the
    # simulation; the config refuses it before any
    path = tmp_path / "c.fq"
    path.write_text(FREDKIN_SWAP_INPUT)

    def simulate(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(timing, "run_shots", simulate)
    assert main([str(path), *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: l_phi / gate_length must be finite, "
                        r"got \S+ / \S+\n", captured.err)


def test_arrivals_past_the_float_range_are_a_config_error(tmp_path):
    wired = DESYNCED.replace("segment q0 1um", "segment q0 1um\nsegment q1 2um")
    code, text = run_cli(wired, tmp_path)
    assert code == EXIT_DESYNC
    # at this velocity both arrivals overflow to inf, whose spread is nan and
    # would pass the window
    code, text = run_cli(wired, tmp_path, velocity=1e-310,
                         output_format="machine")
    assert code == EXIT_PARSE
    assert text == ("error: element 0 (cc) arrival time on q0, q1 is not "
                    "finite (upstream wire over velocity 1e-310 um/ps)\n")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(input_path="x", shots=0)
    with pytest.raises(ValueError):
        RunConfig(input_path="x", output_format="yaml")
    with pytest.raises(ValueError):
        RunConfig(input_path="x", window=0.0)
    with pytest.raises(ValueError, match="unknown dephasing mode"):
        RunConfig(input_path="x", dephasing_mode="thermal")
    # the config builds each model once and cannot drift from it
    config = RunConfig(input_path="x", l_phi=12.0, velocity=0.2, window=3.0,
                       dephasing_mode="mc")
    assert config.dephasing == timing.DephasingModel(12.0, "monte-carlo")
    assert config.propagation == timing.PropagationModel(0.2, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.l_phi = 5.0


@pytest.mark.parametrize("field, value", [
    ("shots", 2.5), ("shots", 10.0), ("shots", True),
    ("seed", 1.5), ("seed", 2.0), ("seed", True),
])
def test_run_config_refuses_shots_and_seeds_that_are_not_integers(field, value):
    # refused when the config is built, so cli.run never meets them
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        RunConfig(input_path="x", **{field: value})


def test_run_config_accepts_numpy_integers(tmp_path):
    code, numpy_ints = run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=np.int64(50),
                               seed=np.int32(3), output_format="machine")
    assert code == EXIT_OK
    assert numpy_ints == run_cli(FREDKIN_SWAP_INPUT, tmp_path, shots=50, seed=3,
                                 output_format="machine")[1]


@pytest.mark.parametrize("value", ["2", np.float64(2.0), np.float32(2.0)],
                         ids=["str", "float64", "float32"])
def test_run_config_stores_its_numbers_as_floats(tmp_path, value):
    # a string once raised TypeError, which main does not catch, and a
    # float32 was stored and reported as given
    fields = ("l_phi", "velocity", "window", "gate_length")
    config = RunConfig(input_path="x", **dict.fromkeys(fields, value))
    assert [type(getattr(config, name)) for name in fields] == [float] * 4
    assert config == RunConfig(input_path="x", **dict.fromkeys(fields, 2.0))
    assert config.propagation == timing.PropagationModel(2.0, 2.0)
    assert config.dephasing == timing.DephasingModel(2.0)
    code, text = run_cli(FREDKIN_SWAP_INPUT, tmp_path, output_format="machine",
                         **dict.fromkeys(fields, value))
    assert code == EXIT_OK
    assert text == run_cli(FREDKIN_SWAP_INPUT, tmp_path, output_format="machine",
                           **dict.fromkeys(fields, 2.0))[1]
    assert "lphi_um=2.0\n" in text and "gate_length_um=2.0\n" in text


@pytest.mark.parametrize("field", ["l_phi", "velocity", "window", "gate_length"])
def test_run_config_refuses_numbers_that_are_not_numbers(field):
    with pytest.raises(ValueError, match=f"{field} must be a number, got 'x'"):
        RunConfig(input_path="x", **{field: "x"})


def pumped_netlist(n_rails, pumped, body=()):
    lines = [f"rails {n_rails}"]
    lines += [f"sep q{r} delay=0ps" + ("" if r in pumped else " empty")
              for r in range(n_rails)]
    lines += list(body)
    lines += [f"set q{r}" for r in range(n_rails)]
    return "\n".join(lines) + "\n"


def test_wide_sector_past_the_cap_exits_2(tmp_path):
    # 12 electrons on 40 rails, every rail in one group of couplers: C(40,
    # 12) masks, refused before any is built
    text = pumped_netlist(40, set(range(0, 24, 2)),
                          [f"bs q{r} q{r + 1} lc=0.14um lt=0.28um"
                           for r in range(0, 39)])
    for mode in ("off", "factor", "mc"):
        code, output = run_cli(text, tmp_path, shots=10, dephasing_mode=mode)
        assert code == EXIT_PARSE
        assert output == ("error: the 12-electron sector of 40 rails has "
                          "C(40, 12) = 5586853480 amplitudes, above the cap "
                          "of 2^24 amplitudes (256 MiB)\n")


def test_few_electrons_on_the_widest_register_run(tmp_path):
    # pumps on the first and last rail of 63, joined by a Coulomb coupler:
    # the mask of q62 sets bit 62, the highest bit an int64 mask can hold
    text = pumped_netlist(63, {0, 62}, ["ps q62 phi=0.3rad",
                                        "cc q0 q62 chit=0.5rad"])
    code, output = run_cli(text, tmp_path, shots=100, output_format="machine")
    assert code == EXIT_OK
    assert counts_from_machine(output) == {"1" + "0" * 61 + "1": 100}


@pytest.mark.parametrize("mode", ["off", "factor", "mc"])
def test_rail_path_lengths_computed_once_per_run(tmp_path, monkeypatch, mode):
    calls = []
    original = budget.rail_path_lengths

    def counted(circuit):
        calls.append(circuit)
        return original(circuit)

    monkeypatch.setattr(budget, "rail_path_lengths", counted)
    # also catch a copy imported by name into the sampler's module
    monkeypatch.setattr(timing, "rail_path_lengths", counted, raising=False)
    code, text = run_cli(FREDKIN_SWAP_INPUT.replace("set q0", "segment q1 2um\nset q0"),
                         tmp_path, shots=50, dephasing_mode=mode,
                         output_format="machine")
    assert code == EXIT_OK
    assert len(calls) == 1
    # the wire on q1 reaches the report: 2 um plus the Fredkin footprint
    assert re.search(r"^budget_rail_um 1 2\.28", text, re.M)


def per_bit(mask, n_rails):
    return "".join(str((mask >> r) & 1) for r in range(n_rails))


@pytest.mark.parametrize("n_rails", range(1, 13))
def test_mask_bits_matches_the_per_bit_formula(n_rails):
    masks = np.arange(1 << n_rails, dtype=np.int64)
    rows = cli._bit_rows(masks, n_rails).T.tobytes().decode("ascii")
    for mask in range(1 << n_rails):
        assert rows[mask * n_rails:(mask + 1) * n_rails] == per_bit(mask, n_rails)


# every width a count can have, at both ends
DIGIT_BOUNDARIES = sorted({0, 2**63 - 1} | {10**k for k in range(19)}
                          | {10**k - 1 for k in range(1, 19)})
COUNTS = st.one_of(st.sampled_from(DIGIT_BOUNDARIES), st.integers(0, 2**63 - 1))


@st.composite
def histograms(draw):
    """``(n_rails, masks, counts)``: ascending int64 masks and their int64
    counts, the form ``ShotHistogram`` holds."""
    n_rails = draw(st.integers(1, 63))
    top = (1 << n_rails) - 1
    masks = st.one_of(st.integers(0, top), st.just(top),
                      st.integers(1 << (n_rails - 1), top))
    items = sorted(draw(st.dictionaries(masks, COUNTS, max_size=30)).items())
    return (n_rails, np.array([mask for mask, _ in items], dtype=np.int64),
            np.array([count for _, count in items], dtype=np.int64))


def count_lines(masks, counts, n_rails):
    """The ``count`` lines of ascending ``masks``, one f-string each."""
    return "".join(f"count {per_bit(mask, n_rails)} {count}\n"
                   for mask, count in zip(masks.tolist(), counts.tolist()))


def written(write, *args, chunk_rows):
    out = io.StringIO()
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        write(out, *args)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(histograms(), st.integers(1, 8))
def test_count_lines_match_the_per_line_formula(histogram, chunk_rows):
    n_rails, masks, counts = histogram
    assert written(cli._write_count_lines, masks, counts, n_rails,
                   chunk_rows=chunk_rows) == count_lines(masks, counts, n_rails)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.dictionaries(
           st.text("01L", min_size=width, max_size=width), COUNTS)),
       st.integers(1, 8))
def test_logical_lines_match_the_per_line_formula(logical_counts, chunk_rows):
    expected = "".join(f"logical {key} {logical_counts[key]}\n"
                       for key in sorted(logical_counts))
    assert written(cli._write_logical_lines, logical_counts,
                   chunk_rows=chunk_rows) == expected


def test_count_lines_cross_the_chunk_boundary():
    n_rails = 13
    # one more outcome than two full chunks
    masks = np.arange(2 * cli._CHUNK_ROWS + 1, dtype=np.int64)
    counts = 7 * masks % 1009
    assert written(cli._write_count_lines, masks, counts, n_rails,
                   chunk_rows=cli._CHUNK_ROWS) == count_lines(masks, counts,
                                                              n_rails)


class HashingSink:
    """A report stream that keeps only the length and digest of its text."""

    def __init__(self):
        self.size = 0
        self.digest = hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.digest.update(text.encode("ascii"))


def test_count_lines_hold_no_more_than_the_text_and_one_chunk():
    # 1e5 outcomes on 20 rails, counts of one to six digits
    rng = np.random.default_rng(11)
    n_outcomes, n_rails = 100_000, 20
    masks = rng.choice(1 << n_rails, size=n_outcomes, replace=False)
    values = (10 ** rng.uniform(0, 6, n_outcomes)).astype(np.int64)
    order = masks.argsort()
    masks, values = masks[order], values[order]
    sink = HashingSink()
    tracemalloc.start()
    try:
        cli._write_count_lines(sink, masks, values, n_rails)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = hashlib.sha256()
    for mask, count in zip(masks.tolist(), values.tolist()):
        expected.update(f"count {per_bit(mask, n_rails)} {count}\n".encode())
    assert sink.digest.hexdigest() == expected.hexdigest()
    # the masks and counts are the histogram's, built before tracing; one
    # chunk of 4096 lines, with its int64 digit quotients and the chunk's
    # text, stays within 2 MiB (0.56 MB measured).  Holding the whole text
    # (3.15 MB), or copies of both arrays (1.6 MB) beside the chunk, does not
    assert peak <= 2 * 2**20
