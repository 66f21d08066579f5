"""Domain model for two-valued FIFO packet buffering instances.

A problem instance is a FIFO buffer of capacity ``B`` together with a
sequence of packets, each worth 1 or ``alpha`` (``alpha > 1``), arriving at
totally ordered ``(step, seq)`` keys. An instance holds its packets as
three parallel columns in key order, with no object per packet; a
:class:`Packet` is a view of one row, its id rendered by :func:`packet_id`.
A packet subset crosses every function boundary as arrival indices, row
numbers checked by :func:`arrival_indices`. Every quantity that decides
algorithm behavior is exact: values cross every function boundary as
:class:`fractions.Fraction`, and hot loops count in integers scaled by
alpha's denominator, building one Fraction at the end. Floats never enter
a comparison, so simulations are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Rat = Fraction

ONE = Fraction(1)
ZERO = Fraction(0)


class InstanceParseError(ValueError):
    """Malformed instance text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidInstanceError(ValueError):
    """An :class:`Instance` was built from values that break its invariants."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = tuple(violations)


def parse_int(text: str, signed: bool = False) -> int:
    """Parse ASCII decimal digits, after one leading '-' only if `signed`.

    Stricter than :func:`int`, which also takes '+', '_', surrounding
    whitespace and non-ASCII digits.
    """
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rat(text: str) -> Rat:
    """Parse ``num/den`` (or a bare integer) into an exact rational.

    Both parts are ASCII digits; only the numerator may carry a '-'.
    """
    num_text, sep, den_text = text.partition("/")
    try:
        num = parse_int(num_text, signed=True)
        den = parse_int(den_text) if sep else 1
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    if den <= 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Fraction(num, den)


def format_rat(value: Rat) -> str:
    return f"{value.numerator}/{value.denominator}"


# a packet's class is its text, "one" or "alpha", and in the columns its alpha flag
_FLAG_OF_TEXT = {"one": False, "alpha": True}
_TEXT_OF_FLAG = ("one", "alpha")


def _class_error(klass: object) -> ValueError:
    return ValueError(f"{klass!r} is not a packet class: 'one' or 'alpha'")


class _cached:
    """A cached property without the lock the stdlib's version takes before Python 3.12.

    The first read computes the value and stores it in the instance's
    ``__dict__``, where every later read finds it without calling this
    descriptor. A computation that raises stores nothing.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class ArrivalKey(NamedTuple):
    """Total order on packet releases: lexicographic on (step, seq).

    ``seq`` separates packets released within the same step, in release
    order; two packets never share a key in a valid instance. A tuple, so
    it compares and hashes in C.
    """

    step: int
    seq: int = 0


class Packet(NamedTuple):
    key: ArrivalKey
    klass: str  # "one" | "alpha"

    @property
    def id(self) -> str:
        return packet_id(*self.key)

    @property
    def is_alpha(self) -> bool:
        return self.klass == "alpha"


def packet_id(step: int, seq: int) -> str:
    """Readable id of the packet at key (step, seq): ``"5"`` for seq 0, else ``"5.1"``."""
    return str(step) if seq == 0 else f"{step}.{seq}"


def packet_ids(steps: Iterable[int], seqs: Iterable[int]) -> list[str]:
    """:func:`packet_id` of each row of two key columns, with no call per row."""
    return [str(step) if seq == 0 else f"{step}.{seq}" for step, seq in zip(steps, seqs)]


def arrival_id(inst: Instance, i: int) -> str:
    """The id of arrival `i` of `inst`."""
    return packet_id(inst.steps[i], inst.seqs[i])


def make_packet(step: int, seq: int, klass: str) -> Packet:
    """The packet at key (step, seq) of class `klass`; ValueError unless it is "one" or "alpha"."""
    if type(klass) is not str or klass not in _FLAG_OF_TEXT:
        raise _class_error(klass)
    return Packet(ArrivalKey(step, seq), klass)


@dataclass(frozen=True)
class Instance:
    """A full problem input: capacity, value ratio, and the packets as columns.

    Packet ``i`` has key ``(steps[i], seqs[i])`` and is worth alpha if
    ``is_alpha[i]``, else 1. Valid by construction: ``__post_init__`` runs
    :func:`validate_instance` and raises :class:`InvalidInstanceError` with
    every violation, so no function that takes an instance checks it again.
    Ascending keys make the packets, and so their rendered ids, distinct.
    """

    capacity: int
    alpha: Rat
    steps: tuple[int, ...]
    seqs: tuple[int, ...]
    is_alpha: tuple[bool, ...]

    def __post_init__(self) -> None:
        violations = validate_instance(self)
        if violations:
            raise InvalidInstanceError(violations)

    @_cached
    def arrivals(self) -> tuple[Packet, ...]:
        """The packets as :class:`Packet` objects in key order, built on first read."""
        texts = _TEXT_OF_FLAG
        rows = zip(self.steps, self.seqs, self.is_alpha)
        return tuple([Packet(ArrivalKey(step, seq), texts[flag]) for step, seq, flag in rows])


def build_instance(capacity: int, alpha: Rat, specs: Iterable[tuple[int, int, str]]) -> Instance:
    """Construct an instance's columns from (step, seq, klass) triples, sorted by key.

    Each klass is "one" or "alpha", or a ValueError names the first other
    value. An alpha that is not a Fraction is converted. Raises
    :class:`InvalidInstanceError`, as the constructor does, when two
    triples share a key or a value is out of range.
    """
    rows = sorted(specs, key=lambda spec: spec[:2])
    steps, seqs, classes = zip(*rows) if rows else ((), (), ())
    flag_of = _FLAG_OF_TEXT
    flags = tuple([flag_of.get(c) if type(c) is str else None for c in classes])
    if None in flags:
        raise _class_error(classes[flags.index(None)])
    return Instance(capacity, alpha if type(alpha) is Fraction else Fraction(alpha), steps, seqs, flags)


def validate_instance(inst: Instance) -> list[str]:
    """Check all instance invariants; an empty list means the instance is ok.

    The capacity, steps and seqs must be ints (a bool is not one here);
    a packet whose key is not is left out of the order check.
    :class:`Instance` calls this as it is built and raises on any
    violation, so it always finds nothing in an instance that exists.
    """
    violations: list[str] = []
    if type(inst.capacity) is not int:
        violations.append(f"capacity must be an int, not {type(inst.capacity).__name__}")
    elif inst.capacity < 1:
        violations.append("capacity must be at least 1")
    if not isinstance(inst.alpha, Fraction):
        violations.append(f"alpha must be a Fraction, not {type(inst.alpha).__name__}")
    elif inst.alpha.numerator <= inst.alpha.denominator:  # on ints: the denominator is positive
        violations.append("alpha must exceed 1")
    steps, seqs, flags = inst.steps, inst.seqs, inst.is_alpha
    if not len(steps) == len(seqs) == len(flags):
        lengths = f"{len(steps)} steps, {len(seqs)} seqs, {len(flags)} is_alpha"
        return violations + [f"column lengths differ: {lengths}"]
    prev_step, prev_seq = -math.inf, 0  # below every step, so the first key is in order
    for step, seq, flag in zip(steps, seqs, flags):
        int_key = type(step) is int and type(seq) is int
        if not int_key:
            kinds = f"{type(step).__name__} and {type(seq).__name__}"
            violations.append(f"packet {packet_id(step, seq)}: step and seq must be ints, not {kinds}")
        elif step < 1 or seq < 0:
            violations.append(f"packet {packet_id(step, seq)}: key ({step},{seq}) out of range")
        if type(flag) is not bool:
            kind = type(flag).__name__
            violations.append(f"packet {packet_id(step, seq)}: is_alpha must be a bool, not {kind}")
        if not int_key:
            continue
        if step <= prev_step:  # not past the previous key's step: compare the seqs
            if step < prev_step or seq < prev_seq:
                violations.append(f"arrivals out of order at packet {packet_id(step, seq)}")
            elif seq == prev_seq:
                violations.append(f"duplicate key ({step},{seq})")
        prev_step, prev_seq = step, seq
    return violations


def value_sum(alpha: Rat, ones: int, alphas: int) -> Rat:
    """Exact value of `ones` 1-value and `alphas` alpha packets."""
    a, b = alpha.as_integer_ratio()
    return Fraction(ones * b + alphas * a, b)


def arrival_indices(inst: Instance, indices: Iterable[int]) -> list[int]:
    """`indices` ascending, each once; ValueError for one outside ``range(len(inst.steps))``."""
    idxs = sorted(set(indices))
    if idxs and not (0 <= idxs[0] and idxs[-1] < len(inst.steps)):
        i = idxs[0] if idxs[0] < 0 else idxs[-1]  # the least, if it is out of range
        raise ValueError(f"arrival index {i} out of range for {len(inst.steps)} arrivals")
    return idxs


def total_value(inst: Instance, indices: Iterable[int]) -> Rat:
    """Exact value of the arrivals at `indices`, each counted once."""
    idxs = arrival_indices(inst, indices)
    alphas = sum([inst.is_alpha[i] for i in idxs])
    return value_sum(inst.alpha, len(idxs) - alphas, alphas)


# ---------------------------------------------------------------------------
# Instance text format: the grammar is in parse_instance's docstring.

def format_instance(inst: Instance) -> str:
    lines = [f"buffer {inst.capacity}", f"alpha {format_rat(inst.alpha)}"]
    text_of = _TEXT_OF_FLAG
    for step, seq, flag in zip(inst.steps, inst.seqs, inst.is_alpha):
        lines.append(f"packet {step} {seq} {text_of[flag]}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse instance text into an :class:`Instance`, one column entry per packet line.

    Grammar: one directive per line; '#' starts a comment, blank lines are
    skipped and any Unicode whitespace separates fields::

        buffer <B>                     exactly once, B >= 1
        alpha <num>/<den> | <num>      exactly once, value > 1
        packet <step> <seq> one|alpha  step >= 1, seq >= 0

    Directives may come in any order, but packet lines must be strictly
    ascending by (step, seq); unknown directives are rejected. Integers are
    ASCII decimal digits, and only alpha's numerator may carry a '-'.
    Leading zeros are allowed and do not reach the id, which is rendered
    from the key: ``packet 05 01 alpha`` gets key (5, 1) and id ``"5.1"``.
    Each error is an :class:`InstanceParseError` naming the first
    offending line (0 for a missing directive), so every text that passes
    these checks also passes the :class:`Instance` constructor's.
    """
    capacity: int | None = None
    alpha: Rat | None = None
    steps, seqs, flags = [], [], []  # the columns, one entry per packet line
    last_step, last_seq = 0, 0  # below every parsed key, since step >= 1
    flag_of = _FLAG_OF_TEXT
    lines = text.splitlines()
    # a comment and a non-ASCII character are each looked for once in the
    # whole text, not on every line; split() needs no strip() first
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    any_non_ascii = not text.isascii()
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        directive = fields[0]
        if directive == "packet":
            if len(fields) != 4:
                raise InstanceParseError(line_no, "packet takes: step seq one|alpha")
            _, step_text, seq_text, klass_text = fields
            flag = flag_of.get(klass_text)
            try:
                # parse_int's rule, inline; int() still rejects too many digits
                if flag is None or not (step_text.isdigit() and seq_text.isdigit()) or (
                    any_non_ascii and not (step_text.isascii() and seq_text.isascii())
                ):
                    raise ValueError
                step, seq = int(step_text), int(seq_text)
            except ValueError:
                raise InstanceParseError(line_no, f"bad packet line: {line.strip()!r}") from None
            if step <= last_step:
                # last_step starts at 0, so a step below 1 lands here too
                if step < 1:
                    raise InstanceParseError(line_no, "packet key out of range")
                if step < last_step or seq <= last_seq:
                    raise InstanceParseError(line_no, "packets must be ascending by (step, seq)")
            last_step, last_seq = step, seq
            steps.append(step)
            seqs.append(seq)
            flags.append(flag)
        elif directive == "buffer":
            if capacity is not None:
                raise InstanceParseError(line_no, "duplicate buffer directive")
            try:
                _, size = fields
                capacity = parse_int(size)
            except ValueError:
                capacity = 0
            if capacity < 1:
                raise InstanceParseError(line_no, "buffer takes one positive integer")
        elif directive == "alpha":
            if alpha is not None:
                raise InstanceParseError(line_no, "duplicate alpha directive")
            if len(fields) != 2:
                raise InstanceParseError(line_no, "alpha takes one rational")
            try:
                alpha = parse_rat(fields[1])
            except ValueError as exc:
                raise InstanceParseError(line_no, str(exc)) from None
            if alpha.numerator <= alpha.denominator:
                raise InstanceParseError(line_no, "alpha must exceed 1")
        else:
            raise InstanceParseError(line_no, f"unknown directive {directive!r}")
    if capacity is None:
        raise InstanceParseError(0, "missing buffer directive")
    if alpha is None:
        raise InstanceParseError(0, "missing alpha directive")
    return Instance(capacity, alpha, tuple(steps), tuple(seqs), tuple(flags))
