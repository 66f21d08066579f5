import re
from dataclasses import is_dataclass, replace
from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fifolab
from fifolab import (
    ArrivalKey,
    GenConfig,
    Instance,
    InstanceParseError,
    InvalidInstanceError,
    Policy,
    build_instance,
    demo_instance,
    feasible,
    format_instance,
    make_packet,
    opt_containing,
    parse_instance,
    parse_rat,
    random_instance,
    run,
    run_ropt,
    total_value,
    validate_instance,
)
from fifolab.model import Packet, arrival_indices, packet_id, packet_ids
from test_properties import instances


def by_ids(inst, *ids):
    """Arrival indices of the packets with these ids."""
    index = {p.id: i for i, p in enumerate(inst.arrivals)}
    return {index[i] for i in ids}


def violations_of(build, *args, **kwargs):
    """The violations the error from ``build(*args, **kwargs)`` names."""
    with pytest.raises(InvalidInstanceError) as exc:
        build(*args, **kwargs)
    return exc.value.violations


class TestValidate:
    def test_empty_instance_ok(self):
        assert validate_instance(Instance(1, Fraction(2), (), (), ())) == []

    def test_duplicate_key(self):
        columns = ((1, 1), (0, 0), (False, True))
        assert any("duplicate key" in v for v in violations_of(Instance, 2, Fraction(2), *columns))

    def test_class_must_be_a_packet_class(self):
        # a class given as its text would be truthy, so valued as alpha
        assert violations_of(Instance, 1, Fraction(2), (1,), (0,), ("alpha",)) == (
            "packet 1: is_alpha must be a bool, not str",
        )

    def test_capacity_step_and_seq_must_be_ints(self):
        # at capacity 2.5 the policy never sees a full buffer and delivers all
        # four packets, while the optimum keeps three: the policy would beat it
        specs = [(1, s, "one") for s in range(4)]
        assert violations_of(build_instance, 2.5, Fraction(2), specs) == (
            "capacity must be an int, not float",
        )
        assert violations_of(Instance, True, Fraction(2), (), (), ()) == (
            "capacity must be an int, not bool",
        )
        assert violations_of(Instance, 1, Fraction(2), (1, 1.5), (0, 0), (False, True)) == (
            "packet 1.5: step and seq must be ints, not float and int",
        )
        assert violations_of(Instance, 1, Fraction(2), (1, 2), (0, False), (True, True)) == (
            "packet 2: step and seq must be ints, not int and bool",
        )
        # a key that is no number is reported, not compared
        assert violations_of(Instance, 1, Fraction(2), ("3", 2), (0, 0), (True, 1)) == (
            "packet 3: step and seq must be ints, not str and int",
            "packet 2: is_alpha must be a bool, not int",
        )

    def test_column_lengths_must_agree(self):
        assert violations_of(Instance, 0, Fraction(2), (1, 2), (0,), (True,)) == (
            "capacity must be at least 1",
            "column lengths differ: 2 steps, 1 seqs, 1 is_alpha",
        )

    def test_alpha_must_exceed_one(self):
        assert any("alpha" in v for v in violations_of(Instance, 1, Fraction(1), (), (), ()))

    @pytest.mark.parametrize(
        "alpha, ok",
        [(Fraction(1), False), (Fraction(1, 2), False), (Fraction(1000001, 1000000), True)],
    )
    def test_alpha_above_one_through_constructor_and_parser(self, alpha, ok):
        text = f"buffer 1\nalpha {alpha.numerator}/{alpha.denominator}\npacket 1 0 alpha\n"
        if ok:
            assert parse_instance(text) == Instance(1, alpha, (1,), (0,), (True,))
            return
        assert violations_of(Instance, 1, alpha, (1,), (0,), (True,)) == ("alpha must exceed 1",)
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert str(err.value) == "line 2: alpha must exceed 1"

    def test_alpha_must_be_a_fraction(self):
        assert violations_of(Instance, 3, 2, (), (), ()) == ("alpha must be a Fraction, not int",)

    def test_out_of_order_arrivals(self):
        columns = ((2, 1), (0, 0), (False, False))
        assert any("out of order" in v for v in violations_of(Instance, 2, Fraction(2), *columns))

    def test_capacity_positive(self):
        assert any("capacity" in v for v in violations_of(Instance, 0, Fraction(2), (), (), ()))

    def test_every_construction_path_checks(self):
        # build_instance, dataclasses.replace and the fixtures all go through the constructor
        specs = [(1, 0, "one"), (1, 0, "alpha")]
        assert "duplicate key (1,0)" in violations_of(build_instance, 2, Fraction(2), specs)
        assert violations_of(replace, demo_instance(Fraction(2)), capacity=0) == (
            "capacity must be at least 1",
        )
        assert violations_of(demo_instance, Fraction(1)) == ("alpha must exceed 1",)


class TestBuildClasses:
    SPECS = [(2, 0, "alpha"), (1, 0, "one"), (1, 1, "alpha"), (3, 0, "one")]

    def test_members_texts_and_a_mix_give_equal_instances(self):
        # a class is its text: the literal texts, the class texts of the
        # instance's own packets, read back, and a mix of the two
        texts = build_instance(2, Fraction(2), self.SPECS)
        members = build_instance(2, Fraction(2), [(*p.key, p.klass) for p in texts.arrivals])
        read = {p.key: p.klass for p in texts.arrivals}
        mixed = build_instance(
            2, Fraction(2), [(t, s, read[t, s] if t % 2 else c) for t, s, c in self.SPECS]
        )
        assert texts == members == mixed
        assert texts.is_alpha == (False, True, True, False)
        assert [p.klass for p in members.arrivals] == ["one", "alpha", "alpha", "one"]
        assert all(type(flag) is bool for flag in members.is_alpha + mixed.is_alpha)

    @pytest.mark.parametrize("klass", ["beta", 3, None, [1], "ONE", True], ids=repr)
    def test_an_invalid_class_raises_the_enum_text(self, klass):
        # one ValueError, shaped like the text of an Enum's failed lookup, from
        # both builders that take a class text
        specs = [(1, 0, "one"), (2, 0, klass), (3, 0, "alpha")]
        message = rf"^{re.escape(repr(klass))} is not a packet class: 'one' or 'alpha'$"
        with pytest.raises(ValueError, match=message):
            build_instance(2, Fraction(2), specs)
        with pytest.raises(ValueError, match=message):
            make_packet(2, 0, klass)


class TestValues:
    def test_one_packet(self):
        inst = build_instance(1, Fraction(2), [(1, 0, "one")])
        assert total_value(inst, [0]) == 1

    def test_alpha_packet(self):
        inst = build_instance(1, Fraction(2), [(1, 0, "alpha")])
        assert total_value(inst, [0]) == 2

    def test_alpha_value_is_exact(self):
        inst = build_instance(1, Fraction(10, 3), [(1, 0, "alpha")])
        assert total_value(inst, [0]) == Fraction(10, 3)

    def test_each_index_counts_once(self):
        inst = build_instance(2, Fraction(2), [(1, 0, "one"), (1, 1, "alpha")])
        assert arrival_indices(inst, [1, 0, 1, 1]) == [0, 1]
        assert total_value(inst, [1, 0, 1, 1]) == 3

    def test_total_of_empty_set(self):
        inst = demo_instance(Fraction(2))
        assert total_value(inst, set()) == 0

    def test_total_of_optimal_set(self):
        # 6 alpha packets plus one 1-value packet: 6*2 + 1
        inst = demo_instance(Fraction(2))
        chosen = by_ids(inst, "1.2", "2", "2.1", "2.2", "5", "5.1", "5.2")
        assert total_value(inst, chosen) == 13

    def test_total_of_policy_set(self):
        # 5 alpha packets plus one 1-value packet: 5*2 + 1
        inst = demo_instance(Fraction(2))
        chosen = by_ids(inst, "1", "2", "2.1", "2.2", "5.1", "5.2")
        assert total_value(inst, chosen) == 11

    def test_total_is_additive_and_order_invariant(self):
        inst = demo_instance(Fraction(3))
        left = by_ids(inst, "1", "1.1")
        right = by_ids(inst, "5.1", "2.3")
        combined = total_value(inst, left | right)
        assert combined == total_value(inst, left) + total_value(inst, right)
        assert combined == total_value(inst, sorted(left | right, reverse=True))


# every function that takes a packet subset takes it as arrival indices
INDEX_TAKERS = {
    "total_value": lambda inst, on, idxs: total_value(inst, idxs),
    "feasible": lambda inst, on, idxs: feasible(inst, idxs),
    "opt_containing": lambda inst, on, idxs: opt_containing(inst, idxs),
    # run_ropt takes its O-set as feasible schedules it, which checks the indices
    "run_ropt": lambda inst, on, idxs: run_ropt(on, feasible(inst, idxs)),
}


@pytest.mark.parametrize(
    "index, message",
    [
        (-1, "arrival index -1 out of range for 10 arrivals"),
        (10, "arrival index 10 out of range for 10 arrivals"),
    ],
    ids=["minus-one", "past-the-end"],
)
@pytest.mark.parametrize("name", INDEX_TAKERS)
def test_index_outside_the_arrivals_rejected(name, index, message):
    inst = demo_instance(Fraction(2))
    on = run(Policy.on(Fraction(2)), inst)
    with pytest.raises(ValueError) as exc:
        INDEX_TAKERS[name](inst, on, [0, index])
    assert str(exc.value) == message


class TestTextFormat:
    def test_round_trip(self):
        inst = demo_instance(Fraction(10, 3))
        assert parse_instance(format_instance(inst)) == inst

    def test_comments_and_blank_lines(self):
        text = "# capacity\nbuffer 2\n\nalpha 5/2  # ratio\npacket 1 0 one\n"
        inst = parse_instance(text)
        assert inst.capacity == 2
        assert inst.alpha == Fraction(5, 2)
        assert len(inst.arrivals) == 1

    def test_unknown_directive_carries_line_number(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("buffer 1\nalpha 2/1\nbogus 1\n")
        assert err.value.line_no == 3

    def test_out_of_order_packets_rejected(self):
        text = "buffer 1\nalpha 2/1\npacket 2 0 one\npacket 1 0 one\n"
        with pytest.raises(InstanceParseError):
            parse_instance(text)

    def test_duplicate_directives_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("buffer 1\nbuffer 2\nalpha 2/1\n")

    def test_missing_directives_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("alpha 2/1\n")

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("buffer 1\nalpha 1/1\n")

    def test_non_decimal_buffer_size_rejected(self):
        # '²'.isdigit() holds, but int('²') fails
        for size in ("²", "0", "-1", "1.5"):
            with pytest.raises(InstanceParseError):
                parse_instance(f"buffer {size}\nalpha 2/1\n")

    def test_duplicate_key_rejected_at_its_line(self):
        text = "buffer 1\nalpha 2/1\npacket 1 0 one\npacket 1 0 alpha\n"
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert err.value.line_no == 4
        assert str(err.value) == "line 4: packets must be ascending by (step, seq)"

    def test_leading_zeros_normalise_key_and_id(self):
        inst = parse_instance("buffer 1\nalpha 2/1\npacket 05 01 alpha\npacket 007 0 one\n")
        assert [p.id for p in inst.arrivals] == ["5.1", "7"]
        assert [p.key for p in inst.arrivals] == [ArrivalKey(5, 1), ArrivalKey(7, 0)]
        assert inst == build_instance(1, Fraction(2), [(5, 1, "alpha"), (7, 0, "one")])

    def test_tab_and_nbsp_separate_fields(self):
        text = "buffer\t2\nalpha\u00a05/2\npacket\t1\u00a00 \t one\u00a0\n"
        assert parse_instance(text) == build_instance(2, Fraction(5, 2), [(1, 0, "one")])

    def test_crlf_line_ends(self):
        text = "buffer 2\r\nalpha 5/2\r\npacket 1 0 one\r\npacket 1 1 alpha\r\n"
        expected = build_instance(2, Fraction(5, 2), [(1, 0, "one"), (1, 1, "alpha")])
        assert parse_instance(text) == expected
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text + "packet 1 1 one\r\n")
        assert err.value.line_no == 5

    def test_trailing_comment_on_packet_line(self):
        text = "buffer 2\nalpha 5/2\npacket 1 0 alpha # first\npacket 2 0 one#x y z\n"
        expected = build_instance(2, Fraction(5, 2), [(1, 0, "alpha"), (2, 0, "one")])
        assert parse_instance(text) == expected

    def test_parse_rat(self):
        assert parse_rat("10/4") == Fraction(5, 2)
        assert parse_rat("7") == 7
        with pytest.raises(ValueError):
            parse_rat("1/0")
        with pytest.raises(ValueError):
            parse_rat("x")
        with pytest.raises(ValueError):
            parse_rat(" 2")


class TestIdentity:
    @given(instances())
    def test_parsed_packets_equal_and_hash_equal(self, inst):
        parsed = parse_instance(format_instance(inst)).arrivals
        assert parsed == inst.arrivals
        assert [hash(p) for p in parsed] == [hash(p) for p in inst.arrivals]
        index = {p: i for i, p in enumerate(inst.arrivals)}
        assert [index[p] for p in parsed] == list(range(len(parsed)))
        assert set(parsed) == set(inst.arrivals)
        assert all(p in set(parsed) for p in inst.arrivals)

    @given(*[st.tuples(st.integers(0, 3), st.integers(0, 3))] * 2)
    def test_key_order_is_tuple_order(self, a, b):
        ka, kb = ArrivalKey(*a), ArrivalKey(*b)
        assert (ka < kb, ka == kb, ka > kb) == (a < b, a == b, a > b)
        if a == b:
            assert hash(ka) == hash(kb)

    def test_key_seq_defaults_to_zero(self):
        assert ArrivalKey(5) == ArrivalKey(5, 0)

    def test_fields_are_read_only(self):
        [parsed] = parse_instance("buffer 1\nalpha 2/1\npacket 3 1 alpha\n").arrivals
        for key in (ArrivalKey(3, 1), parsed.key):
            for field in ("step", "seq"):
                with pytest.raises(AttributeError):
                    setattr(key, field, 0)
        for packet in (make_packet(3, 1, "alpha"), parsed):
            for field in ("key", "klass"):
                with pytest.raises(AttributeError):
                    setattr(packet, field, 0)
            # a property has no setter, and a named tuple has no __dict__ to set it in
            for derived in ("id", "is_alpha"):
                with pytest.raises((AttributeError, TypeError)):
                    setattr(packet, derived, 0)
            assert not hasattr(packet, "__dict__")

    def test_reprs(self):
        [parsed] = parse_instance("buffer 1\nalpha 2/1\npacket 3 1 alpha\n").arrivals
        assert repr(ArrivalKey(3, 1)) == repr(parsed.key) == "ArrivalKey(step=3, seq=1)"
        assert repr(make_packet(3, 1, "alpha")) == repr(parsed) == (
            "Packet(key=ArrivalKey(step=3, seq=1), klass='alpha')"
        )
        # the named tuple's constructor builds the same packet as the parser's
        direct = Packet(ArrivalKey(3, 1), "alpha")
        assert (direct, hash(direct), repr(direct)) == (parsed, hash(parsed), repr(parsed))

    def test_only_records_that_check_or_cache_are_dataclasses(self):
        # Instance, Policy and GenConfig check their fields as they are built,
        # and RunTrace (like Instance) caches what it derives in its __dict__;
        # every other record is a named tuple
        classes = {
            name: cls for name, cls in vars(fifolab).items()
            if isinstance(cls, type) and cls.__module__.startswith("fifolab.")
        }
        kinds = {name for name, cls in classes.items() if is_dataclass(cls)}
        assert kinds == {"Instance", "Policy", "GenConfig", "RunTrace"}
        records = {
            name for name, cls in classes.items()
            if name not in kinds and name != "CheckStatus" and not issubclass(cls, (Exception, Enum))
        }
        assert records == {
            "AnalysisReport", "ArrivalKey", "BoundBreakdown", "Chain", "ChargeLedger", "ChargeRecord",
            "CheckResult", "EventLog", "InstanceAnalysis", "OptResult", "Packet", "RatioReport",
            "RoptTrace", "StepEvent",
        }
        for name in records:
            assert issubclass(classes[name], tuple) and isinstance(classes[name]._fields, tuple), name

    def test_make_packet_rejects_an_unknown_class(self):
        with pytest.raises(ValueError, match="^'beta' is not a packet class: 'one' or 'alpha'$"):
            make_packet(1, 0, "beta")

    def test_equality_still_compares_every_field(self):
        one, alpha = make_packet(1, 0, "one"), make_packet(1, 0, "alpha")
        same = Packet(ArrivalKey(1, 0), "one")
        assert one == same and hash(one) == hash(same)
        assert one != alpha
        assert len({one, alpha, same}) == 2

    @given(*[st.tuples(st.integers(1, 12), st.integers(0, 12))] * 2)
    def test_id_is_rendered_from_the_key(self, a, b):
        assert Packet._fields == ("key", "klass")
        pa, pb = make_packet(*a, "one"), make_packet(*b, "alpha")
        for (step, seq), packet in ((a, pa), (b, pb)):
            assert packet.id == (str(step) if seq == 0 else f"{step}.{seq}")
        assert (pa.id == pb.id) == (a == b)

    def test_packet_ids_render_each_row_as_packet_id(self):
        dense = GenConfig(
            capacity_min=16, capacity_max=16, horizon=1400, max_burst=3,
            max_packets=None, alpha_choices=(Fraction(2),), seed=0,
        )
        sources = [random_instance(dense)] + [random_instance(GenConfig(seed=s)) for s in range(200)]
        # seq 0, multi-digit steps and seqs, and a seq longer than its step
        edge = build_instance(3, Fraction(2), [(1, 0, "one"), (1, 10, "one"), (123, 0, "alpha"),
                                               (123, 45, "one"), (7, 1234, "alpha")])
        for inst in sources + [edge]:
            ids = packet_ids(inst.steps, inst.seqs)
            assert ids == [packet_id(step, seq) for step, seq in zip(inst.steps, inst.seqs)]
        assert ids == ["1", "1.10", "7.1234", "123", "123.45"]
        assert any(seq == 0 for seq in sources[0].seqs) and any(seq > 0 for seq in sources[0].seqs)
        assert packet_ids((), ()) == []
