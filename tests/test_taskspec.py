import dataclasses
import random
import re
import string

import pytest

from tampnet import ValidationError, parse, parse_env
from tampnet.errors import (SpecError, SpecShapeError, SpecSyntaxError,
                            UnknownPropositionError)
from tampnet.petri import Atom, END, VISIT
from tampnet.taskspec import (BooleanSpec, SpecVectors, compile_vectors,
                              format_spec, holds)

from conftest import counts_of, hand_net
from test_planner import random_formulas


@pytest.mark.parametrize("text", [
    "true",
    "visit(1)",
    "end(goal)",
    "!visit(3)",
    "(visit(a) | visit(b)) & end(c)",
    "visit(1) & visit(2) & end(3) & !end(4) & !visit(5)",
    "(end(x) | end(y) | end(z))",
])
def test_round_trip_through_canonical_text(text):
    spec = parse(text)
    assert parse(format_spec(spec)) == spec


def test_true_is_the_empty_spec():
    spec = parse("  true ")
    assert spec == BooleanSpec()
    assert spec.is_empty()
    assert format_spec(spec) == "true"
    assert spec.trajectory_clauses == spec.final_clauses == ()
    assert spec.forbidden == frozenset()


def test_canonical_text_orders_clauses_and_forbidden():
    spec = parse("!visit(2) & end(3) & !end(1) & visit(1)")
    assert format_spec(spec) == "visit(1) & end(3) & !end(1) & !visit(2)"


def test_parse_normalizes_duplicates_and_clause_order():
    a = parse("visit(b) & visit(a) & visit(a) & (end(y) | end(x))")
    b = parse("(end(x) | end(y)) & visit(a) & visit(b)")
    assert a == b
    assert a.trajectory_clauses == (frozenset({"a"}), frozenset({"b"}))
    assert a.final_clauses == (frozenset({"x", "y"}),)


def test_parse_collects_atoms():
    spec = parse("(visit(a) | visit(b)) & end(c) & !end(d)")
    assert spec.trajectory_clauses == (frozenset({"a", "b"}),)
    assert spec.final_clauses == (frozenset({"c"}),)
    assert spec.forbidden == frozenset({Atom(END, "d")})


@pytest.mark.parametrize("text, position", [
    ("visit(1) @ end(2)", 9),
    ("visit(1) end(2)", 9),
    ("(visit(1) | visit(2)", 20),
    ("& visit(1)", 0),
    ("!(visit(1) | visit(2))", 1),
])
def test_syntax_errors_carry_positions(text, position):
    with pytest.raises(SpecSyntaxError) as err:
        parse(text)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_rejects_empty_and_non_string_input():
    with pytest.raises(SpecSyntaxError):
        parse("")
    with pytest.raises(SpecSyntaxError):
        parse("   ")
    with pytest.raises(SpecSyntaxError):
        parse(None)


@pytest.mark.parametrize("text", [
    "(visit(1) | end(2))",
    "visit(1) & !visit(1)",
    "(end(a) | end(b)) & !end(b)",
])
def test_shape_errors(text):
    with pytest.raises(SpecShapeError):
        parse(text)


def test_mixed_kind_negation_is_fine():
    spec = parse("visit(1) & !end(1)")
    assert spec.trajectory_clauses == (frozenset({"1"}),)
    assert spec.forbidden == frozenset({Atom(END, "1")})


def test_constructor_validates_directly():
    with pytest.raises(SpecShapeError):
        BooleanSpec(trajectory_clauses=(frozenset(),))
    with pytest.raises(SpecShapeError):
        BooleanSpec(forbidden=frozenset({("visit", "1")}))
    with pytest.raises(SpecShapeError):
        BooleanSpec(forbidden=frozenset({Atom("sometimes", "1")}))
    with pytest.raises(SpecShapeError):
        BooleanSpec(trajectory_clauses=(frozenset({"bad name"}),))


def test_compile_vectors_against_demo_monitor(demo_offline):
    qm = demo_offline.monitored
    assert qm.indicator_of == {"1": 5, "2": 6}

    vec = compile_vectors(parse("visit(1) & end(3) & !visit(2)"),
                          qm.net, qm.indicator_of)
    assert vec == SpecVectors(trajectory=((5,),), final=((4,),), forbidden=(6,))

    vec = compile_vectors(parse("(visit(1) | visit(2)) & !end(3)"),
                          qm.net, qm.indicator_of)
    assert vec == SpecVectors(trajectory=((5, 6),), final=(), forbidden=(4,))


def test_compile_vectors_against_plant_monitor(plant_offline):
    # each plant region is two cells, so an end atom binds two places:
    # end(1) -> 6, 7; end(2) -> 12, 13; end(5) -> 0, 1; end(10) -> 18, 19;
    # the visit latches of 3, 4, 6 and 9 are places 25, 26, 28 and 31
    qm = plant_offline.monitored
    spec = parse("end(10) & (end(2) | end(1)) & (visit(9) | visit(6)) & visit(3)"
                 " & !end(5) & !visit(4)")
    assert spec.final_clauses == (frozenset({"1", "2"}), frozenset({"10"}))
    assert spec.trajectory_clauses == (frozenset({"3"}), frozenset({"6", "9"}))
    vec = compile_vectors(spec, qm.net, qm.indicator_of)
    assert vec == SpecVectors(trajectory=((25,), (28, 31)),
                              final=((6, 7, 12, 13), (18, 19)),
                              forbidden=(0, 1, 26))


def test_compile_vectors_lists_shared_places_once():
    # place 0 carries end(a) and end(b), place 1 carries end(b) only, and
    # visit(u) and visit(w) share the latch place 2
    net = hand_net(3, [((0,), (1,), 1)],
                   [frozenset({Atom(END, "a"), Atom(END, "b")}),
                    frozenset({Atom(END, "b")}), frozenset()], (1, 0, 0))
    indicator_of = {"u": 2, "w": 2}
    vec = compile_vectors(parse("(end(b) | end(a)) & (visit(w) | visit(u))"),
                          net, indicator_of)
    assert vec == SpecVectors(trajectory=((2,),), final=((0, 1),), forbidden=())
    vec = compile_vectors(parse("!end(a) & !end(b) & !visit(u) & !visit(w)"),
                          net, indicator_of)
    assert vec == SpecVectors(trajectory=(), final=(), forbidden=(0, 1, 2))


@pytest.mark.parametrize("text", ["visit(3)", "end(1)", "!visit(nope)"])
def test_compile_vectors_rejects_unbound_names(demo_offline, text):
    qm = demo_offline.monitored
    with pytest.raises(UnknownPropositionError):
        compile_vectors(parse(text), qm.net, qm.indicator_of)


def _eval_net():
    # two cells: place 0 carries visit(a), place 1 carries end(b)
    return hand_net(
        2,
        [((0,), (1,), 1), ((1,), (0,), 1)],
        [frozenset({Atom(VISIT, "a")}), frozenset({Atom(END, "b")})],
        (1, 0),
    )


def test_holds_on_hand_built_runs():
    net = _eval_net()
    word_stay = (frozenset({Atom(VISIT, "a")}),)
    word_move = word_stay + (frozenset({Atom(END, "b")}),)

    # each final marking as the map of its occupied places
    stay, move = net.initial_counts, counts_of((0, 1))
    assert holds(parse("visit(a)"), word_stay, stay, net.labels)
    assert holds(parse("visit(a) & end(b)"), word_move, move, net.labels)
    assert not holds(parse("end(b)"), word_stay, stay, net.labels)
    assert not holds(parse("!visit(a)"), word_stay, stay, net.labels)
    assert not holds(parse("!end(b)"), word_move, move, net.labels)
    assert holds(parse("!end(b)"), word_stay, stay, net.labels)
    assert holds(parse("true"), word_stay, stay, net.labels)


# The tokenizer and parser that parse had before it read a formula in one
# pass over one token regex, kept as the reference of the differential test
# below: a token regex per kind, tried in turn after skipping whitespace,
# and a recursive-descent parser over the finished token list.
_REFERENCE_TOKENS = (
    ("atom", re.compile(r"(visit|end)\s*\(\s*([A-Za-z0-9_]+)\s*\)")),
    ("and", re.compile(r"&")),
    ("or", re.compile(r"\|")),
    ("not", re.compile(r"!")),
    ("lp", re.compile(r"\(")),
    ("rp", re.compile(r"\)")),
)


def reference_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        for kind, rx in _REFERENCE_TOKENS:
            m = rx.match(text, i)
            if m:
                tokens.append((kind, m, i))
                i = m.end()
                break
        else:
            raise SpecSyntaxError(f"unexpected character {text[i]!r}", position=i)
    return tokens


def reference_parse(text):
    if not isinstance(text, str):
        raise SpecSyntaxError(f"formula must be a string, got {type(text).__name__}")
    if text.strip() == "true":
        return BooleanSpec()
    tokens = reference_tokenize(text)
    if not tokens:
        raise SpecSyntaxError("empty formula (use 'true' for no constraints)")

    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos][0] != kind:
            at = tokens[pos][2] if pos < len(tokens) else len(text)
            found = tokens[pos][0] if pos < len(tokens) else "end of input"
            raise SpecSyntaxError(f"expected {kind}, found {found}", position=at)
        tok = tokens[pos]
        pos += 1
        return tok

    def take_atom():
        _, m, _ = take("atom")
        return Atom(m.group(1), m.group(2))

    trajectory = []
    final = []
    forbidden = set()

    def term():
        if peek() == "not":
            take("not")
            forbidden.add(take_atom())
            return
        if peek() == "lp":
            at = tokens[pos][2]
            take("lp")
            atoms = [take_atom()]
            while peek() == "or":
                take("or")
                atoms.append(take_atom())
            take("rp")
            kinds = {a.kind for a in atoms}
            if len(kinds) > 1:
                raise SpecShapeError(
                    "a disjunction may not mix visit and end atoms "
                    f"(clause at position {at})")
            clause = frozenset(a.name for a in atoms)
            (trajectory if atoms[0].kind == VISIT else final).append(clause)
            return
        atom = take_atom()
        (trajectory if atom.kind == VISIT else final).append(frozenset([atom.name]))

    term()
    while pos < len(tokens):
        take("and")
        term()
    return BooleanSpec(tuple(trajectory), tuple(final), frozenset(forbidden))


def outcome(parser, text):
    """The spec ``parser`` returns for ``text``, or the type, message and
    position of what it raises."""
    try:
        return parser(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# whitespace a formula may hold besides spaces: str.isspace() is true of each
WHITESPACE = ("\t", "\n", "\x1c", "\x85", "\xa0", "\u2028")


def mutate(rng, text):
    """``text`` after one to three seeded edits: a character deleted, one of
    '&|!()' or a letter inserted, or other whitespace put in or for a space."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice("&|!()") + text[i:]
        elif edit == 2:
            text = text[:i] + rng.choice(string.ascii_letters + string.digits + "_") + text[i:]
        elif " " in text and rng.random() < 0.5:
            spaces = [k for k, c in enumerate(text) if c == " "]
            k = rng.choice(spaces)
            text = text[:k] + rng.choice(WHITESPACE) + text[k + 1:]
        else:
            text = text[:i] + rng.choice(WHITESPACE) + text[i:]
    return text


FIXED_TEXTS = [
    "", " ", " true ", "\x1ctrue\n", "true & visit(a)", "visit(a) &", "visit(a) & ",
    "&", "!", "(", ")", "|", "visit(a) | visit(b)", "(visit(a) | end(b))",
    "(end(a) | visit(b) | visit(c)) & visit(d)", "visit(a) & (end(b) | visit(c))",
    "(visit(a))", "((visit(a)))", "(visit(a) | )", "(visit(a) |", "(visit(a)",
    "!!visit(a)", "!(visit(a))", "visit(a) & !visit(a)", "visit ( a ) & end\t(\nb\x1c)",
    "visit(a b)", "visitt(a)", "Visit(a)", "visit(é)", "visit(a) é", "visit(a) visit(b)",
    "visit(a) & & visit(b)", "end(a)&end(b)&!end(c)", "(end(a)|end(b))&(visit(c)|visit(d))",
]


def test_parse_matches_the_reference_parser():
    rng = random.Random("parse:differential")
    bases = []
    for _, texts in random_formulas():
        for text in texts:
            bases += [text, format_spec(reference_parse(text))]
    mutants = [mutate(rng, text) for text in bases for _ in range(4)]
    assert len(mutants) >= 2000
    kinds = set()
    for text in FIXED_TEXTS + bases + mutants:
        expected = outcome(reference_parse, text)
        assert outcome(parse, text) == expected, repr(text)
        kinds.add(expected[0] if isinstance(expected, tuple) else BooleanSpec)
    # the mutants reach every outcome
    assert kinds == {BooleanSpec, SpecSyntaxError, SpecShapeError}
    assert outcome(parse, None) == outcome(reference_parse, None)


def test_parse_hands_out_the_constructors_spec():
    # parse sorts, de-duplicates and checks its clauses itself, then builds
    # the spec without the constructor; the constructor must make the same
    # spec of the same fields, and of the same fields shuffled and repeated
    rng = random.Random("parse:canonical")
    texts = FIXED_TEXTS + [text for _, texts in random_formulas() for text in texts]
    parsed = 0
    for text in texts:
        try:
            spec = parse(text)
        except (SpecSyntaxError, SpecShapeError):
            continue
        parsed += 1
        built = BooleanSpec(spec.trajectory_clauses, spec.final_clauses, spec.forbidden)
        for field in dataclasses.fields(BooleanSpec):
            mine, theirs = getattr(spec, field.name), getattr(built, field.name)
            assert mine == theirs and type(mine) is type(theirs), (text, field.name)
        assert all(type(clause) is frozenset
                   for clause in spec.trajectory_clauses + spec.final_clauses), text
        assert all(type(atom) is Atom for atom in spec.forbidden), text
        assert spec == built and hash(spec) == hash(built), text
        shuffled = [list(clauses) * 2 for clauses in (spec.trajectory_clauses,
                                                      spec.final_clauses)]
        for clauses in shuffled:
            rng.shuffle(clauses)
        assert BooleanSpec(*map(tuple, shuffled), set(spec.forbidden)) == spec, text
    assert parsed >= 300


@pytest.mark.parametrize("fields, message", [
    ({"trajectory_clauses": (frozenset({"a"}), frozenset({"bad name"}))},
     "bad proposition name 'bad name'"),
    ({"final_clauses": (frozenset({7}),)}, "bad proposition name 7"),
    ({"forbidden": frozenset({Atom(VISIT, "no-dash")})}, "bad proposition name 'no-dash'"),
    ({"final_clauses": (frozenset({"a"}), frozenset())}, "empty clause"),
    ({"trajectory_clauses": ((),)}, "empty clause"),
    ({"forbidden": frozenset({("visit", "1")})}, "is not a visit/end atom"),
    ({"forbidden": frozenset({"visit(1)"})}, "is not a visit/end atom"),
    ({"trajectory_clauses": (frozenset({"a", "b"}),), "forbidden": frozenset({Atom(VISIT, "b")})},
     "visit(b) is both required and forbidden"),
    ({"final_clauses": (frozenset({"g"}),), "forbidden": frozenset({Atom(END, "g")})},
     "end(g) is both required and forbidden"),
])
def test_constructor_keeps_every_check(fields, message):
    with pytest.raises(SpecShapeError, match=re.escape(message)):
        BooleanSpec(**fields)


def _accepts(check, error) -> bool:
    """``check()``, or False when it raises ``error``."""
    try:
        return check()
    except error:
        return False


@pytest.mark.parametrize("name, valid", [
    ("a", True), ("Z9", True), ("_", True), ("007", True), ("plant_1", True),
    ("", False), ("a-b", False), ("a b", False), ('a"b', False), ("a\\b", False),
    ("\u00e9", False), ("\u0663", False), ("a\n", False),
])
def test_one_rule_names_a_proposition(name, valid):
    # a map admits a region proposition exactly when the formula
    # constructor admits the name, and exactly when a formula naming it
    # parses to that same name; no name outside the rule reaches a plan
    doc = {"grid": {"rows": 2, "cols": 2}, "agents": [[1, 1]],
           "regions": [{"name": "z", "cells": [[0, 0]], "trajectory_props": [name]}]}
    in_map = _accepts(lambda: parse_env(doc) is not None, ValidationError)
    in_spec = _accepts(lambda: BooleanSpec(trajectory_clauses=(frozenset({name}),)) is not None,
                       SpecShapeError)
    parsed = _accepts(lambda: parse(f"visit({name})").trajectory_clauses == (frozenset({name}),),
                      SpecError)
    assert in_map == in_spec == parsed == valid
