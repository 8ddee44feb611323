"""Program encoding, machine execution, and halting-mass estimators."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import iter_encodings, kraft_sum, outcome, read_table, rows_of, table_from_int
from bbnet.errors import ParameterError
from bbnet.machines import (
    HALT,
    MachineOutcome,
    encoding_length,
    omega_enumerate,
    omega_monte_carlo,
    population_fitness,
    run,
    sample_programs,
    table_bits,
    _Input,
    _field_codes,
    _programs,
    _rows_from_int,
)
from bbnet import machines
from bbnet.rng import rng_from_seed

# k=1, both entries (write 1, move right, v=1 -> HALT): header "0" + "111" + "111"
HALTER_BITS = "0111111"
# k=1, both entries (write 1, move left, v=0 -> state 0): provably loops
SPINNER_BITS = "0100100"
# the same two programs as (k, table_int), and their (k, entries) tables
HALTER = (1, 0b111111)
SPINNER = (1, 0b100100)
HALTER_TABLE = (1, ((1, 1, HALT), (1, 1, HALT)))
SPINNER_TABLE = (1, ((1, 0, 0), (1, 0, 0)))


def read_program(bits, k_max=6):
    """(k, table_int) of the program at the front of a string of '0'/'1', by the production reader."""
    return next(_programs(iter([bits]), k_max))


def read_all(blocks, k_max=6):
    """Every (k, table_int) the production reader yields from a list of '0'/'1' blocks."""
    return list(_programs(iter(blocks), k_max))


def every_table(k):
    """Every k-state (k, entries) table, listed from the entry format rather than from the decoder."""
    entries = [(write, move, HALT if nxt == k else nxt)
               for write in (0, 1) for move in (0, 1) for nxt in range(k + 1)]
    return [(k, table) for table in itertools.product(entries, repeat=2 * k)]


class CountingRows(tuple):
    """Interpreter rows that count their integer reads: ``run`` makes one per step it executes."""

    reads = 0

    def __getitem__(self, i):
        if isinstance(i, int):
            self.reads += 1
        return super().__getitem__(i)


def executed_steps(table, w, t_max):
    """(outcome, steps executed) of ``run`` on a (k, entries) table.

    A proven non-halter reports t_max steps; the steps executed are the
    step on which its proof held.
    """
    rows = CountingRows(rows_of(table))
    out = run(rows, _Input(w, t_max))
    return out, rows.reads


def all_encodings(k_max, max_len):
    """Bit strings of every valid encoding with |p| <= max_len."""
    out = []
    for k, t_int, length, _ in iter_encodings(k_max, max_len):
        table = format(t_int, f"0{table_bits(k)}b")
        out.append("1" * (k - 1) + "0" + table)
        if k == k_max:
            out.append("1" * k + table)
    return out


def reference_decode(bits, k_max):
    """Slow oracle written from the format spec: one (k, entries) table from a bit iterator."""
    ones = 0
    while ones < k_max and next(bits) == 1:
        ones += 1
    return read_table(bits, ones + 1 if ones < k_max else k_max)


def reference_run(table, w, t_max):
    """Slow oracle written from the spec: the plain step loop, with no deciders."""
    _, entries = table
    tape = {i: int(c) for i, c in enumerate(w)}
    pos, state = 0, 0
    for step in range(1, t_max + 1):
        write, move, state = entries[2 * state + tape.get(pos, 0)]
        tape[pos] = write
        pos += 1 if move else -1
        if state == HALT:
            return MachineOutcome(halted=True, steps=step, score=sum(tape.values()))
    return MachineOutcome(halted=False, steps=t_max, score=0)


class TestEncoding:
    def test_lengths(self):
        assert [encoding_length(k) for k in range(1, 7)] == [7, 18, 27, 44, 55, 66]

    def test_decode_worked_example(self):
        assert read_program(HALTER_BITS) == HALTER
        assert table_from_int(*HALTER) == HALTER_TABLE
        assert reference_decode(map(int, HALTER_BITS), 6) == HALTER_TABLE

    def test_header_cap_rule(self):
        # six ones (k_max=6) go straight to a k=6 table, no terminating zero:
        # the seventh 1 is the table's first bit
        bits = "1" * 6 + "1" + "0" * 59
        assert read_program(bits) == (6, 1 << 59)
        assert len(table_from_int(*read_program(bits))[1]) == 12
        assert read_all([bits[:-1]]) == []

    def test_both_k_max_headers_decode_to_same_k(self):
        table = "0" * 16
        assert read_program("10" + table, k_max=2) == (2, 0)
        assert read_program("11" + table, k_max=2) == (2, 0)

    def test_incomplete_stream(self):
        # a stream that ends mid-program yields the programs before it and no partial one
        assert read_all(["011"]) == []
        assert read_all([HALTER_BITS + SPINNER_BITS[:-1]]) == [HALTER]
        assert read_all([HALTER_BITS, "01"]) == [HALTER]

    def test_program_straddles_blocks(self):
        bits = HALTER_BITS + SPINNER_BITS + "1" * 6 + "1" + "0" * 59 + HALTER_BITS
        programs = [HALTER, SPINNER, (6, 1 << 59), HALTER]
        for cut in range(1, len(bits)):
            assert read_all([bits[:cut], bits[cut:]]) == programs
        assert read_all(list(bits)) == programs

    def test_k_max_header_split_across_blocks(self):
        table = "0" * 15 + "1"
        # two ones at k_max=2: the header ends without a zero in the second block
        assert read_all(["1", "1" + table], k_max=2) == [(2, 1)]
        assert read_all(["1", "", "1", table], k_max=2) == [(2, 1)]
        # a k=4 header ("1110") split 2 + 2: its zero lies past the boundary
        assert read_all(["11", "10" + "0" * 39 + "1"]) == [(4, 1)]

    def test_block_taken_only_when_a_program_reaches_past_the_bits_held(self):
        blocks = iter([HALTER_BITS + SPINNER_BITS[:3], SPINNER_BITS[3:], HALTER_BITS])
        programs = _programs(blocks, 6)
        assert next(programs) == HALTER
        assert next(programs) == SPINNER
        assert next(blocks) == HALTER_BITS
        assert next(programs, None) is None

    def test_prefix_free_k_le_2(self):
        encs = set(all_encodings(k_max=6, max_len=18))
        assert len(encs) == 64 + 65536
        by_len = sorted({len(e) for e in encs})
        assert by_len == [7, 18]
        for e in encs:
            if len(e) == 18:
                assert e[:7] not in encs

    def test_prefix_free_k_max_2(self):
        encs = set(all_encodings(k_max=2, max_len=18))
        assert len(encs) == 64 + 2 * 65536
        for e in encs:
            if len(e) == 18:
                assert e[:7] not in encs

    @given(st.integers(0, 2**66 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_long_enough_bit_string_decodes(self, word):
        # the mod mapping makes every prefix of fair bits a valid program
        bits = format(word, "066b")
        for k_max in (6, 2):
            k, t_int = read_program(bits, k_max)
            assert 1 <= k <= k_max
            assert 0 <= t_int < 1 << table_bits(k)
            assert table_from_int(k, t_int) == reference_decode(map(int, bits), k_max)


class TestArguments:
    @pytest.mark.parametrize(
        "program", [(0, 0), (2, -1), (2, 1 << 16)], ids=["k-0", "table-negative", "table-too-wide"]
    )
    def test_malformed_program_rejected(self, program):
        # a k=2 table has 16 bits; wider integers must not be masked into range
        with pytest.raises(ParameterError):
            population_fitness([HALTER, program], "", 10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: sample_programs(rng, 5, k_max=0),
            lambda rng: sample_programs(rng, 0),
            lambda rng: sample_programs(rng, -3),
            lambda rng: omega_monte_carlo(10, "", 100, rng, k_max=0),
            lambda rng: omega_monte_carlo(10, "", 0, rng),
            lambda rng: omega_monte_carlo(10, "2", 100, rng),
        ],
        ids=["sample-k-max-0", "sample-count-0", "sample-count-negative",
             "mc-k-max-0", "mc-t-max-0", "mc-w-2"],
    )
    def test_rejected_before_drawing(self, call):
        rng = rng_from_seed(1)
        with pytest.raises(ParameterError):
            call(rng)
        assert rng.random() == rng_from_seed(1).random()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: population_fitness([HALTER], "2", 10),
            lambda: population_fitness([HALTER], "", 0),
            lambda: population_fitness([], "2", 10),
            lambda: omega_enumerate(18, "2", 10),
            lambda: omega_enumerate(18, "", 0),
            lambda: population_fitness([HALTER], ["1"], 10),
            lambda: population_fitness([HALTER], "", 10.5),
            lambda: population_fitness([HALTER], "", True),
            lambda: omega_enumerate(18, 5, 10),
            lambda: omega_enumerate(18, "", True),
            lambda: omega_monte_carlo(10, ["1"], 10, rng_from_seed(1)),
            lambda: omega_monte_carlo(10, "", 10.5, rng_from_seed(1)),
        ],
        ids=["fitness-w-2", "fitness-t-max-0", "fitness-empty-w-2",
             "enum-w-2", "enum-t-max-0",
             "fitness-w-list", "fitness-t-max-float", "fitness-t-max-bool",
             "enum-w-int", "enum-t-max-bool", "mc-w-list", "mc-t-max-float"],
    )
    def test_bad_input_rejected_before_any_run(self, call, monkeypatch):
        def work(*args):
            raise AssertionError("a program ran before the input was checked")

        for name in ("_halt_reachable", "_rows_from_int", "run"):
            monkeypatch.setattr(machines, name, work)
        with pytest.raises(ParameterError):
            call()


class TestSampling:
    def test_probability_of_k1_is_half(self):
        rng = rng_from_seed(202)
        progs = sample_programs(rng, 100_000)
        freq = sum(1 for k, _ in progs if k == 1) / len(progs)
        assert abs(freq - 0.5) < 0.005  # ~3 binomial stderr

    @pytest.mark.parametrize(
        "k_max, at_boundary",
        [(1, 4096), (2, 658), (6, 717), (7, 705)],
        ids=["k_max-1", "k_max-2", "k_max-6", "k_max-7"],
    )
    def test_stream_is_sequential_decode_of_4096_bit_blocks(self, k_max, at_boundary):
        # The Generator stream contract: programs are decoded in turn from
        # 4096-bit integers(0, 2, uint8) blocks, and exactly the blocks the
        # consumed bits reach into are drawn, by sample_programs and by
        # omega_monte_carlo alike. Later draws from the same Generator
        # (infected set, step uniforms) depend on it. ``at_boundary``
        # programs from seed 77 end exactly on a block boundary, so no
        # further block may be drawn; 1500 end mid-block. A k_max=7 table
        # has 70 bits, more than an int64 holds.
        t_max = 100
        for count in (at_boundary, 1500):
            rng = rng_from_seed(77)
            programs = sample_programs(rng, count, k_max)
            used = sum(encoding_length(k) for k, _ in programs)
            n_blocks = -(-used // 4096)

            oracle = rng_from_seed(77)
            bits = np.concatenate(
                [oracle.integers(0, 2, size=4096, dtype=np.uint8) for _ in range(n_blocks)]
            )
            stream = iter(bits.tolist())
            decoded = [reference_decode(stream, k_max) for _ in range(count)]
            assert decoded == [table_from_int(*p) for p in programs]
            assert len(list(stream)) == n_blocks * 4096 - used
            after = oracle.random()
            assert rng.random() == after

            mc_rng = rng_from_seed(77)
            est = omega_monte_carlo(count, "", t_max, mc_rng, k_max)
            assert mc_rng.random() == after
            assert est.value == sum(outcome(t, "", t_max).halted for t in decoded) / count

    def test_deterministic_given_seed(self):
        assert sample_programs(rng_from_seed(5), 50) == sample_programs(rng_from_seed(5), 50)


class TestRun:
    def test_immediate_halter(self):
        out = outcome(HALTER_TABLE, "", 10)
        assert out.halted and out.steps == 1 and out.score == 1

    def test_spinner_never_halts(self):
        out = outcome(SPINNER_TABLE, "", 500)
        assert not out.halted
        assert out.steps == 500
        assert out.score == 0

    def test_input_written_from_cell_zero(self):
        # halter writes a 1 at cell 0 and stops; w's other 1s remain
        out = outcome(HALTER_TABLE, "011", 10)
        assert out.halted
        assert out.score == 3

    def test_budget_monotonicity(self):
        rng = rng_from_seed(40)
        checked = 0
        for p in sample_programs(rng, 300):
            rows = _rows_from_int(*p)
            out = run(rows, _Input("", 60))
            if out.halted:
                assert run(rows, _Input("", 600)) == out
                checked += 1
        assert checked > 50

    def test_determinism(self):
        rng = rng_from_seed(41)
        inp = _Input("", 200)
        for p in sample_programs(rng, 50):
            assert run(_rows_from_int(*p), inp) == run(_rows_from_int(*p), inp)


# Named (k, entries) tables for the deciders; entries[2*state + read] = (write, move, next).
# Bounces between cells 0 and 1 on blank tape; only state 2 can halt, and no
# transition from states 0 or 1 leads there.
HALT_UNREACHABLE = (3, ((0, 1, 1), (0, 1, 0), (0, 0, 0), (1, 1, 1),
                        (1, 1, HALT), (1, 1, HALT)))
# Writes 1s rightward over blank tape; halts on the first 1 it reads.
RIGHT_WRITER = (1, ((1, 1, 0), (1, 1, HALT)))
# Writes a 1, steps right, steps back, clears that 1 and from step 3 on
# moves left over blank tape in state 1 forever.
LATE_LEFT_RUNAWAY = (2, ((1, 1, 1), (1, 1, HALT), (0, 0, 1), (0, 0, 1)))
# Writes 1s leftward over blank tape; halts on the first 1 it reads.
LEFT_WRITER = (1, ((1, 0, 0), (1, 0, HALT)))
# On w = BOUNCER_W, bounces between the 1s at cells 0 and 41 without changing
# the tape: right in state 1, left in states 0 and 2 by turns, so state 0
# always meets the 1 at cell 0 and the halting entry (state 2 reads 1) never
# fires. A cycler with period 82.
BOUNCER = (3, ((0, 0, 2), (1, 1, 1), (0, 1, 1), (1, 0, 0), (0, 0, 0), (1, 1, HALT)))
BOUNCER_W = "1" + "0" * 40 + "1"
# From a new cell in state 0: step back, clear the 1 there, step on and
# write a 1, then enter the next new cell; a right-moving translated cycler
# with period 3 (it halts if state 0 ever reads a 1).
RIGHT_ZIGZAG = (2, ((0, 0, 1), (0, 0, HALT), (1, 1, 0), (0, 1, 1)))
# A left-moving translated cycler: two new cells every 4 steps, and a step
# back in between, so its read-0 chain turns too.
LEFT_ZIGZAG = (2, ((0, 0, 1), (0, 0, HALT), (1, 1, 0), (0, 0, 0)))
# RIGHT_ZIGZAG behind a state 0 that walks right over the 1s of w and hands
# over at the first 0 it reads.
ZIGZAG_AFTER_W = (3, ((0, 0, 2), (1, 1, 0), (0, 0, 2), (1, 1, HALT),
                      (1, 1, 1), (0, 1, 2)))


def near_miss(side):
    """A 4-state machine whose first two same-state records differ only at the window's far end.

    State 0 writes a 1 and enters a new cell in state 1 (right: moving
    right; left: moving left). From a new cell, state 1 steps back; state 2
    reads the cell behind: a 1 lets state 3 step on into the next new cell,
    a 0 halts. The first window ends in state 0's 1, the second in the 0
    state 1 wrote, so the second period halts.
    """
    on, back = (1, 0) if side == "right" else (0, 1)
    return 4, ((1, on, 1), (1, on, 1), (0, back, 2), (0, back, 2),
               (0, back, HALT), (1, on, 3), (0, on, 1), (0, on, 1))


class TestDeciders:
    """``run`` against ``reference_run``, which never proves anything."""

    def test_every_k_le_2_program(self):
        tables = every_table(1) + every_table(2)
        # distinct entries: 2 writes x 2 moves x (k + 1) next states
        assert len(set(tables)) == len(tables) == 8**2 + 12**4
        for m in tables:
            # "0110111" puts 1s ahead of the head, beyond the first record
            for w in ("", "101", "0110111"):
                for t_max in (1000, 200, 37):
                    assert outcome(m, w, t_max) == reference_run(m, w, t_max), (m, w, t_max)

    def test_sampled_k_le_6_programs(self):
        for p in set(sample_programs(rng_from_seed(3), 20_000, k_max=6)):
            m = table_from_int(*p)
            for w in ("", "101", "0110111"):
                for t_max in (1000, 200):
                    assert outcome(m, w, t_max) == reference_run(m, w, t_max), (m, w, t_max)

    def test_halt_unreachable(self):
        m = HALT_UNREACHABLE
        # no transition path reaches HALT, so no step runs
        assert executed_steps(m, "", 1000) == (reference_run(m, "", 1000), 0)
        for t_max in (1, 64, 1000):
            assert outcome(m, "", t_max) == reference_run(m, "", t_max)

    def test_right_runaway_from_blank_tape(self):
        # a run off over blank tape is a translated cycler with a one-cell window
        m = RIGHT_WRITER
        out, steps = executed_steps(m, "", 1000)
        assert out == reference_run(m, "", 1000)
        assert steps <= 2

    def test_runaway_only_after_several_steps(self):
        # from step 3 on, state 1 moves left over blank tape
        m = LATE_LEFT_RUNAWAY
        out, steps = executed_steps(m, "", 1000)
        assert out == reference_run(m, "", 1000)
        assert 3 < steps <= 4
        for t_max in (3, 4, 64, 65, 1000):
            assert outcome(m, "", t_max) == reference_run(m, "", t_max)

    def test_left_runaway_with_input_to_its_right(self):
        m = LEFT_WRITER
        # w = "0101" on cells 0..3, head on cell 0: its 1s lie to the right
        out, steps = executed_steps(m, "0101", 1000)
        assert out == reference_run(m, "0101", 1000)
        assert steps <= 2
        assert outcome(m, "1101", 1000) == reference_run(m, "1101", 1000)

    def test_right_blank_chain_meets_a_1_from_w(self):
        # a 1 of w lies ahead of every record until the writer reaches it
        w = "0" * 100 + "1"
        m = RIGHT_WRITER
        assert outcome(m, w, 1000) == MachineOutcome(halted=True, steps=101, score=101)
        assert outcome(m, w, 1000) == reference_run(m, w, 1000)
        assert executed_steps(m, w, 100) == (MachineOutcome(halted=False, steps=100, score=0), 100)

    def test_cycler_with_period_82(self):
        m, w = BOUNCER, BOUNCER_W
        # the proof needs two configurations 82 steps apart
        out, steps = executed_steps(m, w, 1000)
        assert out == reference_run(m, w, 1000)
        assert 82 < steps < 1000
        for t_max in (81, 82, 83, 256, 1000):
            assert outcome(m, w, t_max) == reference_run(m, w, t_max)

    def test_cycler_needs_the_whole_tape_to_repeat(self):
        # flips cell 0 on each visit: state 0 stands on cell 0 at every even
        # step, but the tape repeats only every 4 steps. References are taken
        # at steps 2 and 4.
        m = (2, ((1, 1, 1), (0, 1, 1), (0, 0, 0), (0, 0, HALT)))
        out, steps = executed_steps(m, "", 100)
        assert out == reference_run(m, "", 100)
        assert 4 < steps <= 8

    @pytest.mark.parametrize("m", [RIGHT_ZIGZAG, LEFT_ZIGZAG], ids=["right", "left"])
    def test_translated_cycler(self, m):
        # each period also steps back, so the window reaches behind the record
        out, steps = executed_steps(m, "", 1000)
        assert out == reference_run(m, "", 1000)
        assert steps <= 16
        for t_max in (8, 9, 64, 1000):
            assert outcome(m, "", t_max) == reference_run(m, "", t_max)

    def test_translated_cycler_after_the_1s_of_w(self):
        m = ZIGZAG_AFTER_W
        # the walk over the 1s repeats one record after another in state 0,
        # but a 1 lies ahead of each of them until step 100
        w = "1" * 100
        out, steps = executed_steps(m, w, 1000)
        assert out == reference_run(m, w, 1000)
        assert out == MachineOutcome(halted=False, steps=1000, score=0)
        assert len(w) < steps < 1000
        # a 1 two cells past the walk halts the zigzag at its first period
        w = "1" * 100 + "01"
        assert outcome(m, w, 1000) == MachineOutcome(halted=True, steps=104, score=101)
        assert outcome(m, w, 1000) == reference_run(m, w, 1000)

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_near_miss_halts(self, side):
        m = near_miss(side)
        # records at steps 1 and 4 in state 1; their windows reach one cell
        # back, to state 0's 1 and then to state 1's 0. It halts at step 6.
        assert outcome(m, "", 100) == reference_run(m, "", 100)
        assert outcome(m, "", 100).steps == 6

    def test_near_miss_after_the_first_check(self):
        # near_miss("right") behind a walk over w's 0s: its records at steps
        # 60 and 63, and it halts at 65, just past the reference at step 64
        m = (4, ((0, 1, 0), (1, 1, 1)) + near_miss("right")[1][2:])
        w = "0" * 59 + "1"
        assert outcome(m, w, 1000) == MachineOutcome(halted=True, steps=65, score=1)
        assert outcome(m, w, 1000) == reference_run(m, w, 1000)
        # a sampled 4-state program: on "0110111" it halts at step 65, which
        # a left window one cell short would have hidden
        m = (4, ((0, 1, 1), (0, 0, 1), (1, 0, 0), (1, 1, 2),
                 (0, 1, 3), (1, 0, 0), (1, 0, HALT), (1, 0, 0)))
        assert outcome(m, "0110111", 1000) == MachineOutcome(halted=True, steps=65, score=6)
        assert outcome(m, "0110111", 1000) == reference_run(m, "0110111", 1000)

    def test_records_on_opposite_sides_do_not_pair(self):
        # state 1 at cell 1 (step 1) and at cell -1 (step 3), all 0s between:
        # not a proof. The left records at steps 3 and 5 are (a runaway).
        m = (3, ((0, 1, 1), (0, 1, HALT), (1, 0, 2), (1, 0, 2), (0, 0, 1), (0, 0, 1)))
        out, steps = executed_steps(m, "", 100)
        assert out == reference_run(m, "", 100)
        assert 3 < steps <= 5


class TestFitness:
    def test_halted_scores(self):
        assert outcome(HALTER_TABLE, "", 10).score == 1

    def test_non_halter_scores_zero(self):
        assert outcome(SPINNER_TABLE, "", 50).score == 0

    def test_population_max_matches_recomputation(self):
        programs = sample_programs(rng_from_seed(8), 2000)
        recomputed = max(outcome(table_from_int(*p), "", 300).score for p in programs)
        assert population_fitness(programs, "", 300).max() == recomputed

    def test_own_fitness_from_programs(self):
        # the memoized population path against the plain interpreter, element-wise
        assert [read_program(HALTER_BITS), read_program(SPINNER_BITS)] == [HALTER, SPINNER]
        assert [table_from_int(*HALTER), table_from_int(*SPINNER)] == [HALTER_TABLE, SPINNER_TABLE]
        programs = [HALTER, SPINNER] + sample_programs(rng_from_seed(3), 300)
        for w in ("", "101"):
            own = population_fitness(programs, w, 100)
            assert own.dtype == np.int64
            assert own.tolist() == [outcome(table_from_int(*p), w, 100).score for p in programs]

    def test_memo_is_per_call(self):
        # k=2 entries are write, move and a 2-bit next-state field v; v = 0
        # and v = 3 both mean state 0. Only the first entry differs here.
        # On "101" the machine halts at step 2 with score 3; on "" it runs
        # away to the right.
        table_int = 0b1100_1101_1010_1100
        twin = table_int | 0b0011 << 12
        assert table_from_int(2, table_int) == table_from_int(2, twin)
        programs = [(2, table_int), (2, twin)] + sample_programs(rng_from_seed(9), 300, k_max=2)
        programs += programs[:50]
        for w, t_max in (("", 5), ("101", 100), ("", 100)):
            own = population_fitness(programs, w, t_max)
            assert own.tolist() == [outcome(table_from_int(*p), w, t_max).score
                                    for p in programs], (w, t_max)
        assert population_fitness(programs[:2], "101", 100).tolist() == [3, 3]


def _distinct_tables(k):
    """Each distinct k-state table once, as interpreter rows, with how many encodings decode to it.

    An entry weighs as many field values as decode to its row.
    """
    options = Counter(_field_codes(k)[2]).items()
    for choice in itertools.product(options, repeat=2 * k):
        yield tuple(entry for entry, _ in choice), math.prod(n for _, n in choice)


def _brute_force_numerator(max_len, w, t_max, k_max):
    """omega_enumerate's numerator from one run of every distinct table."""
    inp = _Input(w, t_max)
    numerator = 0
    for k in range(1, k_max + 1):
        length = encoding_length(k)
        if length <= max_len:
            variants = 2 if k == k_max else 1
            for rows, weight in _distinct_tables(k):
                if run(rows, inp).halted:
                    numerator += variants * weight << (max_len - length)
    return numerator


class TestOmega:
    def test_below_shortest_program(self):
        assert omega_enumerate(6, "", 10).value == 0.0

    def test_k1_halting_mass(self):
        # k=1 halts iff the read-0 entry maps to HALT: 32 of the 64 tables
        est = omega_enumerate(7, "", 10)
        assert est.numerator == 32
        assert est.value == 32 / 128

    def test_monotone_in_length(self):
        lo = omega_enumerate(7, "", 100)
        hi = omega_enumerate(18, "", 100)
        assert hi.value >= lo.value

    def test_length_guard(self):
        with pytest.raises(ParameterError):
            omega_enumerate(27, "", 10)

    def test_negative_length_rejected(self):
        with pytest.raises(ParameterError, match="need max_len >= 0, got -1"):
            omega_enumerate(-1, "", 10)

    def test_monte_carlo_needs_samples_and_a_generator(self):
        with pytest.raises(ParameterError, match="need n_samples >= 1, got 0"):
            omega_monte_carlo(0, "", 10, rng_from_seed(1))
        with pytest.raises(TypeError, match="rng"):
            omega_monte_carlo(10, "", 10)

    def test_kraft_sum_is_exactly_one(self):
        for k_max in range(1, 7):
            assert kraft_sum(k_max) == Fraction(1)

    def test_enumeration_rejects_k_max_below_1(self):
        with pytest.raises(ParameterError):
            omega_enumerate(18, "", 10, k_max=0)

    def test_monte_carlo_matches_enumeration(self):
        # K_max=2 enumeration at 18 bits covers the whole code
        enum = omega_enumerate(18, "", 200, k_max=2)
        mc = omega_monte_carlo(40_000, "", 200, rng_from_seed(13), k_max=2)
        assert abs(mc.value - enum.value) <= 3 * mc.stderr

    def test_monte_carlo_k1_only(self):
        # with k_max=1 the halting mass is exactly 1/2 (read-0 entry -> HALT)
        enum = omega_enumerate(7, "", 50, k_max=1)
        assert enum.value == 0.5
        mc = omega_monte_carlo(20_000, "", 50, rng_from_seed(21), k_max=1)
        assert abs(mc.value - 0.5) <= 3 * mc.stderr

    def test_distinct_tables_match_every_encoding(self):
        # the weights count every table encoding of each k exactly once
        tables = {(k, t_int): table_from_int(k, t_int) for k, t_int, _, _ in iter_encodings(2, 18)}
        for k in (1, 2):
            rows = [_rows_from_int(k, t_int) for t_int in range(1 << table_bits(k))]
            assert rows == [rows_of(tables[k, t_int]) for t_int in range(1 << table_bits(k))]
            decoded = Counter(rows)
            weights = dict(_distinct_tables(k))
            assert weights == decoded
            assert sum(weights.values()) == 2 ** table_bits(k)
        # the weighted numerator against one run per raw encoding
        for w in ("", "101"):
            for t_max in (37, 1000):
                halted = {p: outcome(table, w, t_max).halted for p, table in tables.items()}
                for max_len in (7, 18):
                    for k_max in (1, 2, 6):
                        expected = sum(
                            variants << (max_len - length)
                            for k, t_int, length, variants in iter_encodings(k_max, max_len)
                            if halted[k, t_int]
                        )
                        est = omega_enumerate(max_len, w, t_max, k_max)
                        assert est.numerator == expected, (max_len, k_max, w, t_max)

    @pytest.mark.parametrize("w", ["", "1", "101", "0110111"])
    def test_walk_matches_brute_force(self, w):
        # k <= 2: the partial-table walk against one run of every distinct table
        for t_max in (1, 5, 37, 1000):
            for max_len in (7, 12, 18):
                for k_max in (1, 2, 6):
                    est = omega_enumerate(max_len, w, t_max, k_max)
                    expected = _brute_force_numerator(max_len, w, t_max, k_max)
                    assert est.numerator == expected, (max_len, k_max, t_max)

    def test_walk_runs_only_reached_tables(self, monkeypatch):
        # one run per partial table the walk reaches; one per distinct table is 20,800
        calls = []

        def counted(rows, inp):
            calls.append(1)
            return run(rows, inp)

        monkeypatch.setattr(machines, "run", counted)
        assert omega_enumerate(18, "101", 1000, 6).numerator == 133040
        assert len(calls) <= 2442

    def test_unfixed_entry_read_is_reported(self):
        # state 0 comes back to the 1 it wrote and reads it after two steps
        rows = [(1, 1, 2), machines._unfixed(1), (0, -1, 0), machines._unfixed(3)]
        out = run(rows, _Input("", 10))
        assert out == MachineOutcome(halted=False, steps=2, score=0, unfixed=1)

    @pytest.mark.parametrize("w, numerator", [("", 87248), ("101", 133040), ("0110111", 110984)])
    def test_exact_numerators(self, w, numerator):
        # exact values: a non-halting proof that fires on a halter lowers them
        assert omega_enumerate(18, w, 1000, 6).numerator == numerator

    def test_estimate_record_shape(self):
        rec = omega_enumerate(7, "", 10).to_record()
        assert rec["method"] == "enumeration"
        assert rec["stderr"] == 0.0
        assert rec["params"]["max_len"] == 7

