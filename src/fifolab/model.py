"""Domain model for two-valued FIFO packet buffering instances.

A problem instance is a FIFO buffer of capacity ``B`` together with a
sequence of packets, each worth 1 or ``alpha`` (``alpha > 1``), arriving
at totally ordered ``(step, seq)`` keys. Every quantity that decides
algorithm behavior is kept in :class:`fractions.Fraction`; floats never
enter a comparison, so simulations are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

ONE = Fraction(1)
ZERO = Fraction(0)


class InstanceParseError(ValueError):
    """Malformed instance text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidInstanceError(ValueError):
    """An operation requiring a valid instance was given an invalid one."""

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
    body = text.strip()
    num_text, sep, den_text = body.partition("/")
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


class PacketClass(Enum):
    ONE = "one"
    ALPHA = "alpha"


@dataclass(frozen=True, order=True)
class ArrivalKey:
    """Total order on packet releases: lexicographic on (step, seq).

    ``seq`` separates packets released within the same step, in release
    order; two packets never share a key in a valid instance.
    """

    step: int
    seq: int = 0


@dataclass(frozen=True)
class Packet:
    id: str
    key: ArrivalKey
    klass: PacketClass

    @property
    def is_alpha(self) -> bool:
        return self.klass is PacketClass.ALPHA


def default_packet_id(key: ArrivalKey) -> str:
    """Readable id derived from the key: ``"5"`` for seq 0, else ``"5.1"``."""
    return str(key.step) if key.seq == 0 else f"{key.step}.{key.seq}"


def make_packet(step: int, seq: int, klass: PacketClass | str, id: str | None = None) -> Packet:
    if isinstance(klass, str):
        klass = PacketClass(klass)
    key = ArrivalKey(step, seq)
    return Packet(id if id is not None else default_packet_id(key), key, klass)


@dataclass(frozen=True)
class Instance:
    """A full problem input: capacity, value ratio, and arrivals.

    Construction does not validate; use :func:`validate_instance` (or the
    strict text parser) before handing an instance to a simulator.
    """

    capacity: int
    alpha: Rat
    arrivals: tuple[Packet, ...]


def build_instance(
    capacity: int, alpha: Rat, specs: Iterable[tuple[int, int, PacketClass | str]]
) -> Instance:
    """Construct an instance from (step, seq, klass) triples, sorted by key."""
    packets = sorted((make_packet(*spec) for spec in specs), key=lambda p: p.key)
    return Instance(capacity, Fraction(alpha), tuple(packets))


def validate_instance(inst: Instance) -> list[str]:
    """Check all instance invariants; an empty list means the instance is ok.

    Violations are data for the caller, not exceptions: generators and
    parsers use this as their final gate, and tests probe the boundary
    cases directly.
    """
    violations: list[str] = []
    if inst.capacity < 1:
        violations.append("capacity must be at least 1")
    if not isinstance(inst.alpha, Fraction) or inst.alpha <= 1:
        violations.append("alpha must exceed 1")
    seen_ids: set[str] = set()
    prev: Packet | None = None
    for p in inst.arrivals:
        if p.key.step < 1 or p.key.seq < 0:
            violations.append(f"packet {p.id}: key ({p.key.step},{p.key.seq}) out of range")
        if prev is not None:
            if p.key == prev.key:
                violations.append(f"duplicate key ({p.key.step},{p.key.seq})")
            elif p.key < prev.key:
                violations.append(f"arrivals out of order at packet {p.id}")
        if p.id in seen_ids:
            violations.append(f"duplicate id {p.id!r}")
        seen_ids.add(p.id)
        prev = p
    return violations


def require_valid(inst: Instance) -> None:
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)


def value_of(p: Packet, alpha: Rat) -> Rat:
    """Value of a packet under a given alpha (no membership check)."""
    return alpha if p.is_alpha else ONE


def total_value(inst: Instance, packets: Iterable[Packet]) -> Rat:
    """Exact sum of packet values; additive and enumeration-order invariant."""
    known = set(inst.arrivals)
    total = ZERO
    for p in packets:
        if p not in known:
            raise ValueError(f"packet {p.id!r} does not belong to this instance")
        total += value_of(p, inst.alpha)
    return total


# ---------------------------------------------------------------------------
# Instance text format
#
#   buffer <B>
#   alpha <num>/<den>
#   packet <step> <seq> <one|alpha>
#
# Integers are ASCII decimal digits; only alpha's numerator may carry a '-'.
# '#' starts a comment. Directives may appear in any order except packet
# lines, which must be ascending by (step, seq). Unknown directives are
# rejected.


def format_instance(inst: Instance) -> str:
    lines = [f"buffer {inst.capacity}", f"alpha {format_rat(inst.alpha)}"]
    for p in inst.arrivals:
        lines.append(f"packet {p.key.step} {p.key.seq} {p.klass.value}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    capacity: int | None = None
    alpha: Rat | None = None
    packets: list[Packet] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive, args = fields[0], fields[1:]
        if directive == "buffer":
            if capacity is not None:
                raise InstanceParseError(line_no, "duplicate buffer directive")
            try:
                [size] = args
                capacity = parse_int(size)
            except ValueError:
                capacity = 0
            if capacity < 1:
                raise InstanceParseError(line_no, "buffer takes one positive integer")
        elif directive == "alpha":
            if alpha is not None:
                raise InstanceParseError(line_no, "duplicate alpha directive")
            if len(args) != 1:
                raise InstanceParseError(line_no, "alpha takes one rational")
            try:
                alpha = parse_rat(args[0])
            except ValueError as exc:
                raise InstanceParseError(line_no, str(exc)) from None
            if alpha <= 1:
                raise InstanceParseError(line_no, "alpha must exceed 1")
        elif directive == "packet":
            if len(args) != 3:
                raise InstanceParseError(line_no, "packet takes: step seq one|alpha")
            try:
                step, seq = parse_int(args[0]), parse_int(args[1])
                klass = PacketClass(args[2])
            except ValueError:
                raise InstanceParseError(line_no, f"bad packet line: {line!r}") from None
            if step < 1:
                raise InstanceParseError(line_no, "packet key out of range")
            p = make_packet(step, seq, klass)
            if packets and p.key <= packets[-1].key:
                raise InstanceParseError(line_no, "packets must be ascending by (step, seq)")
            packets.append(p)
        else:
            raise InstanceParseError(line_no, f"unknown directive {directive!r}")
    if capacity is None:
        raise InstanceParseError(0, "missing buffer directive")
    if alpha is None:
        raise InstanceParseError(0, "missing alpha directive")
    return Instance(capacity, alpha, tuple(packets))
