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

Programs exist only as their bit strings, header and table, read in turn
by one generator, ``_programs``, from any iterator of '0'/'1' blocks:
``sample_programs`` and ``omega_monte_carlo`` feed it a Generator's 4096-bit
blocks (``_blocks``), and the tests feed it chosen strings. It splits the
bits it holds with one ``findall`` of a compiled pattern (``_reader``),
which covers the state counts up to the largest header read so far.
All three scorers run partial tables (Brady's tree normal form, "The
determination of the value of Rado's noncomputable function Sigma(k) for
four-state Turing machines", 1983): a run starts with no entry fixed and
branches over an entry's rows when it reads it, so only tables that some
run reaches are run, and one run decides every table that agrees on the
entries it read. Exact enumeration walks every branch, each partial table
on its stack. ``population_fitness`` and ``omega_monte_carlo`` score each
distinct string once through the per-k trees of the call's ``_Input``
(``_cached_outcome``): a lookup takes k from the string's length and
follows the string's fields, read as slices of it, down from the run with
no entry fixed, and runs only a node that no earlier lookup built, on the
string's rows of the entries read on the way. ``population_fitness``
checks every program string, and every integer argument passes
``check_int``, before any program runs.

Execution is on a two-way-infinite binary tape under a step budget; "halts"
always means halts within the budget. Fitness is the busy-beaver sigma
score: the number of 1-cells on the tape at halt, 0 for non-halters. A run
holds only a window of the tape: w and a margin of blank cells either side
at first, doubled whenever the head steps past an end, so what a run costs
follows the cells it visits, not the budget.

A partial-table run that reads an unfixed entry pauses there: it reports
the entry, and where it stands (the step, the state, the head cell and the
window), and each child of the branch resumes from that pause with the
entry fixed, rather than replaying its parent's steps.

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
step loop, so a proof ends the run on the step where it holds. A resumed
run takes them up afresh from its pause: before the pause no proof can hold
(the parent run would have ended there, and after a proof a machine only
repeats entries it has read), so starting afresh can only delay a proof.
A fourth bound is known, not checked: from a blank tape no halting k-state
machine runs more than S(k) steps, so for k <= 4 a run on a w with no 1
stops there. All four are proofs, never guesses, so a proven non-halter
reports exactly what the budget would have: ``halted=False, steps=t_max,
score=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import bisect
import collections
import functools
import itertools
import math
import re

import numpy as np

from .errors import ParameterError, check_int

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


# Where a run stands before a step: (steps taken, state row, head cell, the
# tape window, lowest and highest cell visited, the last cell that may hold
# a 1 of w). Cells are window indices.
Pause = tuple[int, int, int, bytes, int, int, int]

# S(k): the most steps a halting k-state, 2-symbol machine takes from a blank
# tape, its halting step included. S(1) = 1, S(2) = 6 (Rado 1962), S(3) = 21
# (Lin & Rado, J. ACM 12, 1965), S(4) = 107 (Brady, Math. Comp. 40, 1983).
_BUSY_BEAVER_STEPS = {1: 1, 2: 6, 3: 21, 4: 107}

# Blank cells either side of w in the window a run starts from.
_MARGIN = 8


@dataclass(frozen=True)
class MachineOutcome:
    """Result of one run; score is the busy-beaver score, 0 unless halted.

    ``unfixed`` is the entry that a run of a partial table read while it was
    still unfixed, after ``steps`` steps, and ``pause`` where that run stood
    (``Pause``); both are None for every other run. The pause is not
    compared: outcomes are equal when they report the same.
    """

    halted: bool
    steps: int
    score: int
    unfixed: int | None = None
    pause: Pause | None = field(default=None, compare=False, repr=False)


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


@functools.cache
def _reader(top: int, k_max: int):
    """``findall`` of a pattern splitting bits that end in a newline into programs of <= top states.

    A k-state program is k - 1 ones, a zero and its table; at k_max the
    header's last bit may be either. The last alternative takes the rest of
    the bits, newline included, from the first place where no program of at
    most ``top`` states is complete, so no bit is skipped and the last match
    is always that tail.
    """
    zero_ended = range(1, min(top, k_max - 1) + 1)
    alternatives = ["1{%d}0.{%d}" % (k - 1, table_bits(k)) for k in zero_ended]
    if top == k_max:
        alternatives.append("1{%d}[01].{%d}" % (k_max - 1, table_bits(k_max)))
    return re.compile("|".join(alternatives + [".*\n"])).findall


def _programs(blocks: Iterator[str], k_max: int) -> Iterator[str]:
    """The bit string, header and table, of each program read in turn from the blocks.

    The blocks are read as one string, so a program may straddle them. The
    bits held are split by ``_reader``'s pattern, which covers the state
    counts up to the largest header read so far; a tail whose header is
    larger grows it and is read again. A block is taken only when no
    further complete program lies in the bits held, and consumed bits are
    dropped, so about one block is held. When the blocks run out the
    programs end; a partial program is not yielded.
    """
    top, tail = 0, ""
    for block in blocks:
        bits = tail + block + "\n"
        while True:
            programs = _reader(top, k_max)(bits)
            tail = programs.pop()[:-1]
            yield from programs
            z = tail.find("0", 0, k_max)
            # the header is k bits long: k - 1 ones and a zero, or k_max ones
            k = z + 1 if z >= 0 else k_max if len(tail) >= k_max else 0
            if k <= top:
                break  # the tail's program reaches past the bits held
            top, bits = k, tail + "\n"


def sample_programs(
    rng: np.random.Generator, count: int, k_max: int = K_MAX_DEFAULT
) -> list[str]:
    """Read ``count`` programs in turn from one fair-coin bit stream, as bit strings.

    Each program p, header and table, is drawn with probability 2^-|p|.
    The stream is the Generator's 4096-bit blocks, concatenated; the blocks
    drawn are exactly those that the bits consumed reach into.
    """
    count = check_int("count", count, 1)
    k_max = check_int("k_max", k_max, 1)
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
def _field_codes(k: int) -> tuple[tuple[slice, ...], dict[str, Row], tuple[Row, ...]]:
    """Where the 2k table fields of a k-state program sit, and what each field string means.

    Returns the slices of the program string that hold the fields (first
    entry first), every field string decoded as an interpreter ``Row``, and
    the table with no entry fixed.
    """
    b_width = k.bit_length()
    ew = 2 + b_width
    rows = {}
    for code in range(1 << ew):
        nxt = (code & ((1 << b_width) - 1)) % (k + 1)
        rows[format(code, f"0{ew}b")] = _row(
            code >> (1 + b_width), (code >> b_width) & 1, HALT if nxt == k else nxt)
    fields = tuple(slice(start, start + ew) for start in range(k, k + table_bits(k), ew))
    blank = tuple(_unfixed(e) for e in range(2 * k))
    return fields, rows, blank


@functools.cache
def _layout(length: int) -> tuple | None:
    """(k, *_field_codes(k)) of the state count k whose programs are ``length`` bits, or None."""
    k = bisect.bisect_left(range(1, length + 1), length, key=encoding_length) + 1
    return (k, *_field_codes(k)) if encoding_length(k) == length else None


def check_input(w: str, t_max: int) -> int:
    """Refuse an input that is not a bit string or a step budget below 1; return the budget."""
    t_max = check_int("t_max", t_max, 1)
    if not isinstance(w, str) or not set(w) <= {"0", "1"}:
        raise ParameterError(f"input w must be a bit string, got {w!r}")
    return t_max


class _Input:
    """Input w under a step budget, checked once and shared by every run of one call.

    Holds ``start``, the ``Pause`` every run of a whole table resumes from
    (step 0, state 0, the head on w's first cell in a window of w and
    ``_MARGIN`` blank cells either side), the window cell of w's last 1 (-1
    when w holds none), ``stops``, the last step of a run of 2k rows where
    S(k) comes before t_max (only on a w with no 1), the outcome of a run
    that does not halt, and the root of each state count's tree
    (``_cached_outcome``). Nothing it holds grows with t_max.
    """

    __slots__ = ("t_max", "last1", "start", "stops", "never", "roots")

    def __init__(self, w: str, t_max: int):
        self.t_max = t_max = check_input(w, t_max)
        origin = _MARGIN
        tape = bytes(_MARGIN) + bytes(int(c) for c in w) + bytes(_MARGIN)
        self.last1 = last1 = origin + w.rfind("1") if "1" in w else -1
        self.start: Pause = (0, 0, origin, tape, origin, origin, last1)
        self.never = MachineOutcome(halted=False, steps=t_max, score=0)
        self.stops = {} if last1 >= 0 else {
            2 * k: min(t_max, s) for k, s in _BUSY_BEAVER_STEPS.items()}
        self.roots: dict[int, MachineOutcome | _Branch] = {}


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


def run(rows: Sequence[Row], inp: _Input, pause: Pause | None = None) -> MachineOutcome:
    """Execute a program's interpreter rows on a two-way-infinite binary tape.

    ``rows`` are a table's entries as ``Row``s; ``inp`` is the input w and
    the budget t_max, checked once for every run of a population. The tape
    holds w from cell 0 rightward (everything else 0); the head starts at
    cell 0 in state 0. Runs until the halt transition fires or t_max steps
    elapse. The halting transition itself writes, moves, and counts as a
    step. A machine proven never to halt returns on the step its proof
    holds, with the outcome of a spent budget: HALT unreachable before the
    first step, a cycler or translated cycler after any step that does not
    halt (see the module docstring). On a w with no 1, a table of k <= 4
    states stops after S(k) steps (``_BUSY_BEAVER_STEPS``) with that outcome
    too, as no completion of it halts later.

    In a partial table, reading an ``_unfixed`` row pauses the run before
    that step: the outcome reports the entry and the ``Pause``, with the bit
    read left in place. A run resumes from ``pause``, which is
    ``inp.start`` when not given, so a whole table's run is a resumed one.

    The tape is a window of the cells visited and w; the head leaves it
    only on a record step, which then doubles it on that side. A left
    growth shifts every cell index the run holds, and every live snapshot
    is padded to match, so the checks compare what they would on the whole
    tape.

    The proofs keep references, retaken 1, 2, 4, 8, ... steps after the
    step the run starts from (Brent's cycle finding), so the work per step
    is bounded:

    * cycler: the configuration at the last reference step;
    * translated cycler: per side, the first record-breaking configuration
      after that step with nothing but 0s ahead, and the farthest the head
      has gone back from it since.
    """
    if not _halt_reachable(rows):
        return inp.never
    start, state, pos, c_tape, lo, hi, last1 = pause or inp.start
    stop = inp.stops.get(len(rows), inp.t_max)
    tape = bytearray(c_tape)
    c_state, c_pos = state, pos
    # per side (state, pos, tape, farthest cell back since); state -1: none yet
    r_state, r_pos, r_tape, r_back = l_state, l_pos, l_tape, l_back = -1, 0, c_tape, 0
    # per side, whether the next record becomes the reference
    r_armed = l_armed = True
    next_ref = start + 1
    for step in range(start + 1, stop + 1):
        write, move, state = rows[state + tape[pos]]
        tape[pos] = write
        pos += move
        if state < 0:
            if state == 2 * HALT:
                return MachineOutcome(True, step, tape.count(1))
            entry = 2 * HALT - 1 - state
            tape[pos] = entry & 1  # the unfixed row wrote 0 and stayed: put back the bit read
            # positional: the keywords cost a third of building the outcome
            return MachineOutcome(False, step - 1, 0, entry,
                                  (step - 1, entry & ~1, pos, bytes(tape), lo, hi, last1))
        if pos < r_back:
            r_back = pos
        if pos > l_back:
            l_back = pos
        if pos > hi:
            hi = pos
            if pos == len(tape):  # past the window's right end: double the window
                pad = bytes(pos)
                tape += pad
                c_tape, r_tape, l_tape = c_tape + pad, r_tape + pad, l_tape + pad
            # a right record; with a 1 of w ahead it proves nothing
            if pos > last1:
                d = pos - r_pos
                if state == r_state and r_tape[r_back:r_pos + 1] == tape[r_back + d:pos + 1]:
                    return inp.never
                if r_armed:
                    r_state, r_pos, r_tape, r_back = state, pos, bytes(tape), pos
                    r_armed = False
        elif pos < lo:
            if pos < 0:
                # past the left end: double the window, and every cell index
                # moves with its start (with no 1 in w, last1 stays left of
                # every cell visited)
                n = len(tape)
                pad = bytes(n)
                tape[:0] = pad
                c_tape, r_tape, l_tape = pad + c_tape, pad + r_tape, pad + l_tape
                pos, hi, last1, c_pos, r_pos, r_back, l_pos, l_back = (
                    i + n for i in (pos, hi, last1, c_pos, r_pos, r_back, l_pos, l_back))
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
            next_ref += next_ref - start
    return inp.never


class _Branch:
    """A partial table whose run read ``entry`` while it was unfixed, and paused at ``pause``.

    ``children`` maps each row that entry has been fixed to so far to the
    node of that table; field values that decode to the same row share it.
    Each child's run resumes from ``pause``.
    """

    __slots__ = ("entry", "pause", "children")

    def __init__(self, out: MachineOutcome):
        self.entry, self.pause, self.children = out.unfixed, out.pause, {}


def _cached_outcome(inp: _Input, bits: str) -> MachineOutcome:
    """Outcome of program ``bits`` on ``inp``, through the partial-table tree ``inp.roots[k]``.

    k is the state count of the string's length. A lookup starts from the
    blank table and, at each branch, fixes the entry the branch's run read
    to the row of that entry's field, a slice of the string; the row keys
    the child to take, so field strings that decode to the same row share
    it. A child not built yet runs the table as fixed so far, resuming from
    the branch's pause (the root from ``inp.start``). The leaf reached is
    the outcome of every table that agrees with the string on those
    entries, since a run applies only the entries it reads. The string is
    not checked here.
    """
    k, fields, rows, blank = _layout(len(bits))
    table = list(blank)
    branch, children, key = None, inp.roots, k
    while True:
        node = children.get(key)
        if node is None:
            out = run(table, inp, branch and branch.pause)
            node = children[key] = out if out.unfixed is None else _Branch(out)
        if type(node) is not _Branch:
            return node
        key = table[node.entry] = rows[bits[fields[node.entry]]]
        branch, children = node, node.children


def population_fitness(
    programs: Sequence[str], w: str = "", t_max: int = T_MAX_DEFAULT
) -> np.ndarray:
    """Busy-beaver score of each program bit string on input w under the step budget.

    A program is a string of '0'/'1' as ``sample_programs`` reads it: its
    length is that of some state count k >= 1 (``encoding_length``), and
    its first k - 1 bits are ones. Anything else raises ``ParameterError``
    before any program runs. Each distinct string is then scored once,
    through one partial-table tree per state count (``_cached_outcome``):
    identical programs recur constantly when sampling, and most runs decide
    their table after reading a few of its entries.
    """
    inp = _Input(w, t_max)
    try:
        scores = dict.fromkeys(programs)
    except TypeError:  # not iterable, or an unhashable element: no bit string is either
        raise ParameterError("need a sequence of program bit strings") from None
    for bits in scores:
        layout = _layout(len(bits)) if isinstance(bits, str) else None
        if layout is None or bits.strip("01") or bits.count("1", 0, layout[0] - 1) < layout[0] - 1:
            raise ParameterError(f"need a program bit string, got {bits!r}")
    for bits in scores:
        scores[bits] = _cached_outcome(inp, bits).score
    return np.array([scores[bits] for bits in programs], dtype=np.int64)


def _halting_encodings(k: int, inp: _Input) -> int:
    """How many k-state table encodings halt within the budget on the input.

    Walks partial tables: a run starts with every entry unfixed, and a run
    that reads an unfixed entry branches over the rows it decodes to, each
    weighing as many field values as decode to it and resuming from the
    run's pause. A branch that halts counts every completion of its free
    entries; one proven non-halting or out of budget counts none. Either
    verdict used only the entries the run read, so it holds for every
    completion.
    """
    entries = 2 * k
    ew = table_bits(k) // entries
    _, rows, blank = _field_codes(k)
    options = collections.Counter(rows.values()).items()
    total = 0
    todo = [(blank, 1, entries, None)]
    while todo:
        table, weight, free, pause = todo.pop()
        out = run(table, inp, pause)
        if out.unfixed is not None:
            head, tail = table[:out.unfixed], table[out.unfixed + 1:]
            todo.extend((head + (row,) + tail, weight * n, free - 1, out.pause)
                        for row, n in options)
        elif out.halted:
            total += weight << (ew * free)
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
    max_len = check_int("max_len", max_len, 0)
    if max_len > ENUM_LENGTH_GUARD:
        raise ParameterError(
            f"enumeration above {ENUM_LENGTH_GUARD} bits is refused (got max_len={max_len})"
        )
    k_max = check_int("k_max", k_max, 1)
    inp = _Input(w, t_max)
    numerator = 0
    for k in range(1, k_max + 1):
        length = encoding_length(k)
        if length > max_len:
            break  # the lengths grow with k
        # k == k_max is reachable both as (k_max-1) ones + zero and as k_max ones.
        variants = 2 if k == k_max else 1
        numerator += variants * _halting_encodings(k, inp) << (max_len - length)
    value = numerator / (1 << max_len)
    return OmegaEstimate(
        "enumeration", value, 0.0, l_max=max_len, numerator=numerator, t_max=inp.t_max
    )


def omega_monte_carlo(
    n_samples: int,
    w: str,
    t_max: int,
    rng: np.random.Generator,
    k_max: int = K_MAX_DEFAULT,
) -> OmegaEstimate:
    """Fraction of sampled programs that halt within t_max on w.

    Programs are read from the Generator's bit stream as in sample_programs
    and counted as strings; each distinct string is scored once, as in
    population_fitness, with no check, since the reader makes only programs.
    """
    n_samples = check_int("n_samples", n_samples, 1)
    k_max = check_int("k_max", k_max, 1)
    inp = _Input(w, t_max)
    counts = collections.Counter(itertools.islice(_programs(_blocks(rng), k_max), n_samples))
    hits = sum(n for bits, n in counts.items() if _cached_outcome(inp, bits).halted)
    value = hits / n_samples
    stderr = math.sqrt(value * (1.0 - value) / n_samples)
    return OmegaEstimate("monte-carlo", value, stderr, n_samples=n_samples, t_max=inp.t_max)
