"""Self-delimiting Turing machine programs, execution, and halting mass.

Program format
--------------
A program is a finite bit string decoding to a k-state, 2-symbol machine:

* header: (k - 1) ones followed by a zero, capped at ``k_max`` ones --
  a header of ``k_max`` ones is immediately followed by the table (no
  terminating zero);
* table: 2k entries in (state, read-bit) order, state-major. Each entry is
  1 write bit, 1 move bit (0 = left, 1 = right), and b = ceil(log2(k + 1))
  next-state bits read MSB-first as an integer v; next state = v mod (k + 1),
  where value k means halt.

Every bit pattern decodes (the mod mapping absorbs unused codewords), so the
code is complete: summing 2^-|p| over all programs gives exactly 1, and fair
coin flips fed to the reader sample programs with probability 2^-|p|.
The total encoding length is k + 2k * (2 + b).

Programs exist only as (k, table bits as an integer) pairs, read in turn by
one generator, ``_programs``, from any iterator of '0'/'1' blocks:
``sample_programs`` and ``omega_monte_carlo`` feed it a Generator's 4096-bit
blocks (``_blocks``), and the tests feed it chosen strings.
``population_fitness`` and ``omega_monte_carlo`` each memoize outcomes per
call on that pair, and only a miss turns the table bits into interpreter
rows (``_rows_from_int``) for ``run(rows, inp)``. Exact enumeration runs
partial tables instead (Brady's tree normal form, "The determination of the
value of Rado's noncomputable function Sigma(k) for four-state Turing
machines", 1983): a run starts with no entry fixed and branches over an
entry's rows when it reads it, so only tables that some run reaches are
run. Each of the three checks w and t_max once (``_Input``) before any
program runs.

Execution is on a two-way-infinite binary tape under a step budget; "halts"
always means halts within the budget. Fitness is the busy-beaver sigma
score: the number of 1-cells on the tape at halt, 0 for non-halters.

Most machines never halt, and ``run`` proves many of them so before they
spend the budget, with three exact checks (Marxen & Buntrock, "Attacking
the Busy Beaver 5", 1990; the decider catalogue of bbchallenge.org):

* HALT unreachable: no path of transitions from state 0 leads to HALT, so
  no run can take one. Checked before the first step.
* Cycler: the configuration (state, head cell and whole tape) at step t2
  equals the one at an earlier step t1. The machine is deterministic, so it
  repeats steps t1..t2 forever, and none of them halted.
* Translated cycler: steps t1 < t2 both break a record on the same side
  (the head stands on a cell never visited before, right of all others or
  left of all others), in the same state, with nothing but 0s from the
  head onward in that direction (cells never visited hold w, so its 1s
  count). Let d be the distance from t1's head cell to t2's, and let t1's
  window reach from its head cell back to the farthest cell the head
  visited between t1 and t2. If the window d cells on holds the same at
  t2, then steps t2..2*t2-t1 read what steps t1..t2 read, d cells on: they
  never reach behind the window, and ahead of it lie only 0s at both
  steps. They end in the same state with the same window another d cells
  on, so by induction the machine repeats the shifted period forever. A
  machine that runs off over blank tape is one with a window of one cell.

The last two are checked after every step that does not halt, in the one
step loop, so a proof ends the run on the step where it holds. All three
are proofs, never guesses, so a proven non-halter reports exactly what the
budget would have: ``halted=False, steps=t_max, score=0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import collections
import functools
import itertools
import math

import numpy as np

from .errors import ParameterError

HALT = -1
K_MAX_DEFAULT = 6
T_MAX_DEFAULT = 10_000

# Enumeration above this encoding length is refused: the walk decides the 3-state
# programs (27 bits) in 113,361 runs at w = "", but no test oracle covers them.
ENUM_LENGTH_GUARD = 26


def table_bits(k: int) -> int:
    """Table bits of a k-state program: 2k entries of 2 + ceil(log2(k + 1)) bits."""
    return 2 * k * (2 + int(k).bit_length())


def encoding_length(k: int) -> int:
    """Total bits of a k-state program: k header bits + the table."""
    return k + table_bits(k)


def check_k_max(k_max: int) -> None:
    """Refuse a state cap below 1."""
    if k_max < 1:
        raise ParameterError(f"need k_max >= 1, got {k_max}")


@dataclass(frozen=True)
class MachineOutcome:
    """Result of one run; score is the busy-beaver score, 0 unless halted.

    ``unfixed`` is the entry that a run of a partial table read while it was
    still unfixed, after ``steps`` steps; it is None for every other run.
    """

    halted: bool
    steps: int
    score: int
    unfixed: int | None = None


@dataclass(frozen=True)
class OmegaEstimate:
    """Halting-probability estimate; stderr is 0 for exact enumeration."""

    method: str  # "enumeration" | "monte-carlo"
    value: float
    stderr: float
    l_max: int | None = None
    n_samples: int | None = None
    numerator: int | None = None  # exact dyadic value = numerator / 2**l_max
    t_max: int | None = None

    def to_record(self) -> dict:
        params: dict = {"t_max": self.t_max}
        if self.l_max is not None:
            params["max_len"] = self.l_max
        if self.n_samples is not None:
            params["n_samples"] = self.n_samples
        return {
            "method": self.method,
            "value": float(f"{self.value:.12g}"),
            "stderr": float(f"{self.stderr:.12g}"),
            "params": params,
        }


# Bits per Generator draw. Later draws from the same Generator (initial
# infected set, step uniforms) depend on it, so changing it changes outputs.
_BLOCK = 4096


def _blocks(rng: np.random.Generator) -> Iterator[str]:
    """The Generator's fair bits as strings of '0'/'1', one 4096-bit block per draw."""
    while True:
        yield (rng.integers(0, 2, size=_BLOCK, dtype=np.uint8) + 48).tobytes().decode("ascii")


def _programs(blocks: Iterator[str], k_max: int) -> Iterator[tuple[int, int]]:
    """(k, table bits as an MSB-first integer) of each program read in turn from the blocks.

    The blocks are read as one string, so a program may straddle them. A
    block is taken only when a program reaches past the bits taken so far,
    and consumed bits are dropped, so about one block is held. When the
    blocks run out the programs end; a partial program is not yielded.
    """
    lengths = [encoding_length(k) for k in range(k_max + 1)]
    bits, i = "", 0
    for block in blocks:
        bits, i = bits[i:] + block, 0
        n = len(bits)
        while True:
            z = bits.find("0", i, i + k_max)
            # the header is k bits long: k - 1 ones and a zero, or k_max ones
            k = z + 1 - i if z >= 0 else k_max
            end = i + lengths[k]
            if end > n:
                break
            yield k, int(bits[i + k:end], 2)
            i = end


def sample_programs(
    rng: np.random.Generator, count: int, k_max: int = K_MAX_DEFAULT
) -> list[tuple[int, int]]:
    """Read ``count`` programs in turn from one fair-coin bit stream, as (k, table_int).

    Each program p is drawn with probability 2^-|p|. The stream is the
    Generator's 4096-bit blocks, concatenated; the blocks drawn are exactly
    those that the bits consumed reach into.
    """
    if count < 1:
        raise ParameterError(f"need count >= 1, got {count}")
    check_k_max(k_max)
    return list(itertools.islice(_programs(_blocks(rng), k_max), count))


# An entry as the interpreter reads it: (write bit, head move -1 or +1, row of
# the next state, 2 * state; negative is HALT). The interpreter's "state" is
# that row, so rows[state + read_bit] is the entry to apply.
Row = tuple[int, int, int]


def _row(write: int, move: int, nxt: int) -> Row:
    """The row of an entry: write bit, move bit (1 = right), next state or HALT."""
    return write, 2 * move - 1, 2 * nxt


def _unfixed(entry: int) -> Row:
    """The row of table entry ``entry`` while it is not yet fixed.

    Its next state is negative, as HALT's is, so ``_halt_reachable`` counts
    it as a way to HALT; ``run`` leaves on reading it and reports the entry.
    """
    return 0, 0, 2 * HALT - 1 - entry


@functools.cache
def _field_codes(k: int) -> tuple[range, int, list[Row]]:
    """Where the 2k table fields of a k-state program sit, and what each field value means.

    Returns the fields' right shifts (first entry first), the field mask, and
    every field value decoded as an interpreter ``Row``.
    """
    b_width = k.bit_length()
    ew = 2 + b_width
    rows = []
    for code in range(1 << ew):
        nxt = (code & ((1 << b_width) - 1)) % (k + 1)
        rows.append(_row(code >> (1 + b_width), (code >> b_width) & 1, HALT if nxt == k else nxt))
    return range(table_bits(k) - ew, -1, -ew), (1 << ew) - 1, rows


def _rows_from_int(k: int, t_int: int) -> tuple[Row, ...]:
    """The interpreter rows of the table whose bits ``t_int`` holds, MSB first."""
    shifts, mask, rows = _field_codes(k)
    return tuple([rows[t_int >> s & mask] for s in shifts])


def check_input(w: str, t_max: int) -> None:
    """Refuse an input that is not a bit string or a step budget that is not an integer >= 1."""
    if not isinstance(t_max, int) or isinstance(t_max, bool) or t_max < 1:
        raise ParameterError(f"need an integer t_max >= 1, got {t_max!r}")
    if not isinstance(w, str) or not set(w) <= {"0", "1"}:
        raise ParameterError(f"input w must be a bit string, got {w!r}")


class _Input:
    """Input w under a step budget, checked once and shared by every run of a population.

    Holds the initial tape (w from cell ``origin`` rightward, with room for
    ``t_max`` moves either way), the tape cell of w's last 1, and the
    outcomes that runs return, so that no run builds one of its own.
    """

    __slots__ = ("t_max", "tape", "origin", "last1", "never", "_halted")

    def __init__(self, w: str, t_max: int):
        check_input(w, t_max)
        self.t_max = t_max
        self.origin = origin = t_max + 1
        tape = bytearray(2 * t_max + len(w) + 3)
        tape[origin:origin + len(w)] = bytes(int(c) for c in w)
        self.tape = bytes(tape)
        self.last1 = origin + w.rfind("1") if "1" in w else -1
        self.never = MachineOutcome(halted=False, steps=t_max, score=0)
        self._halted: dict[tuple[int, int], MachineOutcome] = {}

    def halted(self, steps: int, score: int) -> MachineOutcome:
        """The outcome of a run that halted at step ``steps`` with ``score`` 1s on the tape."""
        out = self._halted.get((steps, score))
        if out is None:
            out = self._halted[steps, score] = MachineOutcome(halted=True, steps=steps, score=score)
        return out


def _halt_reachable(rows: Sequence[Row]) -> bool:
    """Whether some path of transitions from state 0 reaches HALT."""
    seen, todo = {0}, [0]
    while todo:
        s = todo.pop()
        for _, _, nxt in rows[s:s + 2]:
            if nxt < 0:
                return True
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def run(rows: Sequence[Row], inp: _Input) -> MachineOutcome:
    """Execute a program's interpreter rows on a two-way-infinite binary tape.

    ``rows`` are a program's ``_rows_from_int``; ``inp`` is the input w and
    the budget t_max, checked once for every run of a population. The tape
    holds w from cell 0 rightward (everything else 0); the head starts at
    cell 0 in state 0. Runs until the halt transition fires or t_max steps
    elapse. The halting transition itself writes, moves, and counts as a
    step. A machine proven never to halt returns on the step its proof
    holds, with the outcome of a spent budget: HALT unreachable before the
    first step, a cycler or translated cycler after any step that does not
    halt (see the module docstring). In a partial table, reading an
    ``_unfixed`` row ends the run before that step, reporting the entry.

    The proofs keep references, retaken at steps 1, 2, 4, 8, ... (Brent's
    cycle finding), so the work per step is bounded:

    * cycler: the configuration at the last reference step;
    * translated cycler: per side, the first record-breaking configuration
      after that step with nothing but 0s ahead, and the farthest the head
      has gone back from it since.
    """
    if not _halt_reachable(rows):
        return inp.never
    tape, last1 = bytearray(inp.tape), inp.last1
    state, pos = 0, inp.origin
    lo = hi = pos  # lowest and highest cell visited
    c_state, c_pos, c_tape = state, pos, inp.tape
    # per side (state, pos, tape, farthest cell back since); state -1: none yet
    r_state, r_pos, r_tape, r_back = l_state, l_pos, l_tape, l_back = -1, 0, b"", 0
    # per side, whether the next record becomes the reference
    r_armed = l_armed = True
    next_ref = 1
    for step in range(1, inp.t_max + 1):
        write, move, state = rows[state + tape[pos]]
        tape[pos] = write
        pos += move
        if state < 0:
            if state == 2 * HALT:
                return inp.halted(step, tape.count(1))
            return MachineOutcome(halted=False, steps=step - 1, score=0, unfixed=2 * HALT - 1 - state)
        if pos < r_back:
            r_back = pos
        if pos > l_back:
            l_back = pos
        if pos > hi:
            hi = pos
            # a right record; with a 1 of w ahead it proves nothing
            if pos > last1:
                d = pos - r_pos
                if state == r_state and r_tape[r_back:r_pos + 1] == tape[r_back + d:pos + 1]:
                    return inp.never
                if r_armed:
                    r_state, r_pos, r_tape, r_back = state, pos, bytes(tape), pos
                    r_armed = False
        elif pos < lo:
            # a left record: w starts at the first head cell, so only 0s lie ahead
            lo = pos
            d = pos - l_pos
            if state == l_state and l_tape[l_pos:l_back + 1] == tape[pos:l_back + d + 1]:
                return inp.never
            if l_armed:
                l_state, l_pos, l_tape, l_back = state, pos, bytes(tape), pos
                l_armed = False
        elif state == c_state and pos == c_pos and tape == c_tape:
            return inp.never
        if step == next_ref:
            c_state, c_pos, c_tape = state, pos, bytes(tape)
            r_armed = l_armed = True
            next_ref *= 2
    return inp.never


def _cached_outcome(memo: dict, k: int, t_int: int, inp: _Input) -> MachineOutcome:
    """Outcome of program (k, t_int) from ``memo``, which one call owns; run on a miss."""
    out = memo.get((k, t_int))
    if out is None:
        if k < 1 or not 0 <= t_int < 1 << table_bits(k):
            raise ParameterError(f"malformed program (k={k}, table_int={t_int})")
        out = memo[k, t_int] = run(_rows_from_int(k, t_int), inp)
    return out


def population_fitness(
    programs: Sequence[tuple[int, int]], w: str = "", t_max: int = T_MAX_DEFAULT
) -> np.ndarray:
    """Busy-beaver score of each (k, table_int) program on input w under the step budget.

    Memoized within the call: identical programs recur constantly when sampling.
    """
    inp = _Input(w, t_max)
    memo: dict = {}
    scores = [_cached_outcome(memo, k, t_int, inp).score for k, t_int in programs]
    return np.array(scores, dtype=np.int64)


def _state_counts(k_max: int, max_len: int) -> Iterator[tuple[int, int, int]]:
    """(k, encoding length, header variants) of each state count with |p| <= max_len."""
    for k in range(1, k_max + 1):
        length = encoding_length(k)
        if length <= max_len:
            # k == k_max is reachable both as (k_max-1) ones + zero and as k_max ones.
            yield k, length, 2 if k == k_max else 1


def _halting_encodings(k: int, inp: _Input) -> int:
    """How many k-state table encodings halt within the budget on the input.

    Walks partial tables: a run starts with every entry unfixed, and a run
    that reads an unfixed entry branches over the rows it decodes to, each
    weighing as many field values as decode to it. A branch that halts
    counts every completion of its free entries; one proven non-halting or
    out of budget counts none. Either verdict used only the entries the run
    read, so it holds for every completion.
    """
    entries = 2 * k
    ew = table_bits(k) // entries
    options = collections.Counter(_field_codes(k)[2]).items()
    total = 0
    todo = [([_unfixed(e) for e in range(entries)], 1, entries)]
    while todo:
        table, weight, free = todo.pop()
        out = run(table, inp)
        if out.halted:
            total += weight << (ew * free)
        elif out.unfixed is not None:
            for row, n in options:
                branch = table.copy()
                branch[out.unfixed] = row
                todo.append((branch, weight * n, free - 1))
    return total


def omega_enumerate(
    max_len: int,
    w: str = "",
    t_max: int = T_MAX_DEFAULT,
    k_max: int = K_MAX_DEFAULT,
) -> OmegaEstimate:
    """Exact halting mass of all programs with |p| <= max_len.

    Sums 2^-|p| over every valid encoding whose machine halts within t_max
    on w, accumulated as an integer numerator over 2^max_len (no float
    error). The encodings are counted per state count by a walk over
    partial tables (``_halting_encodings``): a table runs only as far as its
    entries are fixed, and one run decides every completion that agrees on
    the entries it read. A lower bound on the full halting probability when
    max_len cuts it short.
    """
    if max_len < 0:
        raise ParameterError(f"need max_len >= 0, got {max_len}")
    if max_len > ENUM_LENGTH_GUARD:
        raise ParameterError(
            f"enumeration above {ENUM_LENGTH_GUARD} bits is refused (got max_len={max_len})"
        )
    check_k_max(k_max)
    inp = _Input(w, t_max)
    numerator = 0
    for k, length, variants in _state_counts(k_max, max_len):
        numerator += variants * _halting_encodings(k, inp) << (max_len - length)
    value = numerator / (1 << max_len)
    return OmegaEstimate("enumeration", value, 0.0, l_max=max_len, numerator=numerator, t_max=t_max)


def omega_monte_carlo(
    n_samples: int,
    w: str,
    t_max: int,
    rng: np.random.Generator,
    k_max: int = K_MAX_DEFAULT,
) -> OmegaEstimate:
    """Fraction of sampled programs that halt within t_max on w.

    Programs are read from the Generator's bit stream as in sample_programs.
    """
    if n_samples < 1:
        raise ParameterError(f"need n_samples >= 1, got {n_samples}")
    check_k_max(k_max)
    inp = _Input(w, t_max)
    memo: dict = {}
    programs = itertools.islice(_programs(_blocks(rng), k_max), n_samples)
    hits = sum(_cached_outcome(memo, k, t_int, inp).halted for k, t_int in programs)
    value = hits / n_samples
    stderr = math.sqrt(value * (1.0 - value) / n_samples)
    return OmegaEstimate("monte-carlo", value, stderr, n_samples=n_samples, t_max=t_max)
