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
coin flips fed to the decoder sample programs with probability 2^-|p|.
The total encoding length is k + 2k * (2 + b).

Execution is on a two-way-infinite binary tape under a step budget; "halts"
always means halts within the budget. Fitness is the busy-beaver sigma
score: the number of 1-cells on the tape at halt, 0 for non-halters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import math

import numpy as np

from .errors import IncompleteProgramError, ParameterError

HALT = -1
K_MAX_DEFAULT = 6
T_MAX_DEFAULT = 10_000

# Enumeration above this encoding length is refused unless forced (the next
# state count would add tens of millions of tables).
ENUM_LENGTH_GUARD = 26

Entry = tuple[int, int, int]  # (write bit, move bit, next state or HALT)


def next_state_bits(k: int) -> int:
    """ceil(log2(k + 1)): width of the next-state field for a k-state table."""
    return int(k).bit_length()


def encoding_length(k: int) -> int:
    """Total bits of a k-state program: k header bits + 2k entries."""
    return k + 2 * k * (2 + next_state_bits(k))


@dataclass(frozen=True)
class Machine:
    """A k-state, 2-symbol machine; table[2*state + read_bit] = (write, move, next)."""

    k: int
    table: tuple[Entry, ...]

    def __post_init__(self) -> None:
        if len(self.table) != 2 * self.k:
            raise ParameterError(
                f"table needs {2 * self.k} entries for k={self.k}, got {len(self.table)}"
            )
        for entry in self.table:
            write, move, nxt = entry
            if write not in (0, 1) or move not in (0, 1) or not (HALT <= nxt < self.k):
                raise ParameterError(f"malformed table entry {entry!r} for k={self.k}")


@dataclass(frozen=True)
class MachineOutcome:
    """Result of one run; score is the busy-beaver score, 0 unless halted."""

    halted: bool
    steps: int
    score: int


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


class _RandomBits:
    """Iterator of fair coin bits drawn from a Generator in 4096-bit blocks.

    The first block is drawn on construction, each later one only when a bit
    past the end of the current block is requested.
    """

    __slots__ = ("_rng", "_buf", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.integers(0, 2, size=_BLOCK, dtype=np.uint8)
        self._i = 0

    def __iter__(self) -> "_RandomBits":
        return self

    def __next__(self) -> int:
        buf = self._buf
        if self._i >= _BLOCK:
            buf = self._buf = self._rng.integers(0, 2, size=_BLOCK, dtype=np.uint8)
            self._i = 0
        b = int(buf[self._i])
        self._i += 1
        return b


def _decode_core(bits: Iterator[int], k_max: int) -> tuple[int, tuple[Entry, ...]]:
    def take() -> int:
        try:
            b = int(next(bits))
        except StopIteration:
            raise IncompleteProgramError("bit stream ended mid-program") from None
        if b not in (0, 1):
            raise ParameterError(f"non-bit value {b!r} in program stream")
        return b

    ones = 0
    while ones < k_max:
        if take() == 1:
            ones += 1
        else:
            break
    k = ones + 1 if ones < k_max else k_max

    b_width = next_state_bits(k)
    table: list[Entry] = []
    for _ in range(2 * k):
        write = take()
        move = take()
        v = 0
        for _ in range(b_width):
            v = (v << 1) | take()
        nxt = v % (k + 1)
        table.append((write, move, HALT if nxt == k else nxt))
    return k, tuple(table)


def decode(bits: Iterable[int] | str, k_max: int = K_MAX_DEFAULT) -> Machine:
    """Decode one program from the front of a bit stream.

    Accepts a string of '0'/'1', any iterable of ints, or an iterator (in
    which case exactly the encoding is consumed and the rest is left
    untouched). Raises IncompleteProgramError if the stream runs out.
    """
    if isinstance(bits, str):
        bits = (int(c) for c in bits)
    k, table = _decode_core(iter(bits), k_max)
    return Machine(k, table)


def sample_programs(
    rng: np.random.Generator, count: int, k_max: int = K_MAX_DEFAULT
) -> list[Machine]:
    """Decode ``count`` programs in turn from one fair-coin bit stream.

    Each program p is drawn with probability 2^-|p|. The stream is the
    Generator's 4096-bit blocks, concatenated; the blocks drawn are exactly
    those that the bits consumed reach into.
    """
    stream = _RandomBits(rng)
    return [Machine(*_decode_core(stream, k_max)) for _ in range(count)]


def run(machine: Machine, w: str = "", t_max: int = T_MAX_DEFAULT) -> MachineOutcome:
    """Execute on a two-way-infinite binary tape.

    The tape holds w from cell 0 rightward (everything else 0); the head
    starts at cell 0 in state 0. Runs until the halt transition fires or
    t_max steps elapse. The halting transition itself writes, moves, and
    counts as a step.
    """
    if t_max < 1:
        raise ParameterError(f"need t_max >= 1, got {t_max}")
    k = machine.k
    write = tuple(e[0] for e in machine.table)
    delta = tuple(1 if e[1] else -1 for e in machine.table)
    nxt = tuple(e[2] for e in machine.table)

    origin = t_max + 1
    tape = bytearray(2 * t_max + len(w) + 3)
    for i, c in enumerate(w):
        if c not in "01":
            raise ParameterError(f"input w must be a bit string, got {w!r}")
        tape[origin + i] = ord(c) - 48

    pos = origin
    state = 0
    steps_done = 0
    for step in range(1, t_max + 1):
        idx = 2 * state + tape[pos]
        tape[pos] = write[idx]
        pos += delta[idx]
        state = nxt[idx]
        if state < 0:
            steps_done = step
            break
    else:
        return MachineOutcome(halted=False, steps=t_max, score=0)
    return MachineOutcome(halted=True, steps=steps_done, score=tape.count(1))


@lru_cache(maxsize=1 << 18)
def _cached_outcome(k: int, table: tuple[Entry, ...], w: str, t_max: int) -> MachineOutcome:
    return run(Machine(k, table), w, t_max)


def population_fitness(
    machines: Sequence[Machine], w: str = "", t_max: int = T_MAX_DEFAULT
) -> np.ndarray:
    """Busy-beaver score of each machine on input w under the step budget.

    Memoized: identical machines recur constantly when sampling.
    """
    return np.array(
        [_cached_outcome(m.k, m.table, w, t_max).score for m in machines], dtype=np.int64
    )


def _table_from_int(k: int, t_int: int) -> tuple[Entry, ...]:
    """Table decoded from an integer holding the 2k(2+b) table bits, MSB first."""
    b_width = next_state_bits(k)
    ew = 2 + b_width
    total = 2 * k * ew
    table: list[Entry] = []
    for i in range(2 * k):
        chunk = (t_int >> (total - (i + 1) * ew)) & ((1 << ew) - 1)
        write = chunk >> (1 + b_width)
        move = (chunk >> b_width) & 1
        v = chunk & ((1 << b_width) - 1)
        nxt = v % (k + 1)
        table.append((write, move, HALT if nxt == k else nxt))
    return tuple(table)


def _header_variants(k: int, k_max: int) -> int:
    # k == k_max is reachable both as (k_max-1) ones + zero and as k_max ones.
    return 2 if k == k_max else 1


def iter_encodings(k_max: int, max_len: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, table_int, encoding_length, header_variants) for |p| <= max_len."""
    for k in range(1, k_max + 1):
        length = encoding_length(k)
        if length > max_len:
            continue
        n_table_bits = 2 * k * (2 + next_state_bits(k))
        variants = _header_variants(k, k_max)
        for t_int in range(1 << n_table_bits):
            yield k, t_int, length, variants


def omega_enumerate(
    max_len: int,
    w: str = "",
    t_max: int = T_MAX_DEFAULT,
    k_max: int = K_MAX_DEFAULT,
    force: bool = False,
) -> OmegaEstimate:
    """Exact halting mass of all programs with |p| <= max_len.

    Sums 2^-|p| over every valid encoding whose machine halts within t_max
    on w, accumulated as an integer numerator over 2^max_len (no float
    error). A lower bound on the full halting probability when max_len cuts
    the enumeration short.
    """
    if max_len < 7:
        if max_len < 0:
            raise ParameterError(f"need max_len >= 0, got {max_len}")
        return OmegaEstimate("enumeration", 0.0, 0.0, l_max=max_len, numerator=0, t_max=t_max)
    if max_len > ENUM_LENGTH_GUARD and not force:
        raise ParameterError(
            f"enumeration above {ENUM_LENGTH_GUARD} bits is refused by default "
            f"(got max_len={max_len}); pass force=True to override"
        )
    numerator = 0
    for k, t_int, length, variants in iter_encodings(k_max, max_len):
        out = _cached_outcome(k, _table_from_int(k, t_int), w, t_max)
        if out.halted:
            numerator += variants << (max_len - length)
    value = numerator / (1 << max_len)
    return OmegaEstimate("enumeration", value, 0.0, l_max=max_len, numerator=numerator, t_max=t_max)


def kraft_sum(k_max: int, max_len: int | None = None, force: bool = False) -> Fraction:
    """Sum of 2^-|p| over all enumerable encodings, as an exact fraction.

    With max_len covering every state count up to k_max this is exactly 1.
    """
    if max_len is None:
        max_len = encoding_length(k_max)
    if max_len > ENUM_LENGTH_GUARD and not force:
        raise ParameterError(
            f"enumeration above {ENUM_LENGTH_GUARD} bits is refused by default; "
            "pass force=True to override"
        )
    total = Fraction(0)
    for k in range(1, k_max + 1):
        length = encoding_length(k)
        if length > max_len:
            continue
        n_table_bits = 2 * k * (2 + next_state_bits(k))
        count = _header_variants(k, k_max) << n_table_bits
        total += Fraction(count, 1 << length)
    return total


def omega_monte_carlo(
    n_samples: int,
    w: str = "",
    t_max: int = T_MAX_DEFAULT,
    rng: np.random.Generator | None = None,
    k_max: int = K_MAX_DEFAULT,
) -> OmegaEstimate:
    """Fraction of sampled programs that halt within t_max on w."""
    if n_samples < 1:
        raise ParameterError(f"need n_samples >= 1, got {n_samples}")
    if rng is None:
        raise ParameterError("omega_monte_carlo requires a seeded Generator")
    stream = _RandomBits(rng)
    hits = 0
    for _ in range(n_samples):
        k, table = _decode_core(stream, k_max)
        if _cached_outcome(k, table, w, t_max).halted:
            hits += 1
    value = hits / n_samples
    stderr = math.sqrt(value * (1.0 - value) / n_samples)
    return OmegaEstimate("monte-carlo", value, stderr, n_samples=n_samples, t_max=t_max)
