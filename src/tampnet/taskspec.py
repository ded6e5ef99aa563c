"""Boolean task formulas over visit/end propositions.

Grammar (conjunction of terms; disjunction only inside parentheses and only
over atoms of one kind; negation only on single atoms):

    formula := term ('&' term)*
    term    := '!' atom | atom | '(' atom ('|' atom)* ')'
    atom    := 'visit(' name ')' | 'end(' name ')'
    name    := [A-Za-z0-9_]+

``visit(x)`` clauses constrain the trajectory (some agent must enter a cell
carrying trajectory proposition x at some point; starting there counts),
``end(x)`` clauses constrain the final placement, and ``!atom`` forbids the
proposition globally (visit kind) or at the final state (end kind). The
canonical empty formula prints and parses as ``true``.

:func:`compile_vectors` binds a formula to the places of a monitored net
for the tree scan; :func:`holds` checks it on a finished movement-net run,
from the run's word and the ``{place: count}`` map of the places occupied
at its end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence, Tuple

from .errors import SpecShapeError, SpecSyntaxError, UnknownPropositionError
from .petri import END, NAME_RE, VISIT, Atom, PetriNet

# One token per match, after any whitespace: the kinds are tried in this
# order, and "bad" takes any other character. The atom group holds the
# kind (group 2) and the name (group 3).
_TOKEN_RE = re.compile(rf"\s*(?:(?P<atom>(visit|end)\s*\(\s*({NAME_RE.pattern})\s*\))"
                       r"|(?P<and>&)|(?P<or>\|)|(?P<not>!)|(?P<lp>\()|(?P<rp>\))|(?P<bad>\S))")


@dataclass(frozen=True)
class BooleanSpec:
    """Normalized task formula.

    Clauses are frozensets of proposition names, stored sorted and deduped;
    ``forbidden`` holds :class:`Atom` values tagged with their kind. The
    constructor rejects shapes outside the fragment, including a proposition
    used both positively and negated with the same kind.
    """

    trajectory_clauses: Tuple[frozenset, ...] = ()
    final_clauses: Tuple[frozenset, ...] = ()
    forbidden: frozenset = field(default=frozenset())

    def __post_init__(self):
        families = [tuple(map(frozenset, clauses))
                    for clauses in (self.trajectory_clauses, self.final_clauses)]
        for clause in chain(*families):
            if not clause:
                raise SpecShapeError("empty clause")
            for name in clause:
                if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                    raise SpecShapeError(f"bad proposition name {name!r}")
        forbidden = frozenset(self.forbidden)
        for atom in forbidden:
            if not isinstance(atom, Atom) or atom.kind not in (VISIT, END):
                raise SpecShapeError(f"forbidden entry {atom!r} is not a visit/end atom")
            if not NAME_RE.fullmatch(atom.name):
                raise SpecShapeError(f"bad proposition name {atom.name!r}")
        _canonical(self, *families, forbidden)

    def is_empty(self) -> bool:
        return not (self.trajectory_clauses or self.final_clauses or self.forbidden)


def _canonical(spec: BooleanSpec, trajectory, final, forbidden: frozenset) -> BooleanSpec:
    """Write the fields of ``spec`` in canonical form, past the frozen
    ``__setattr__``: each family's clauses sorted by their sorted names,
    each once. Raises SpecShapeError naming the smallest atom both required
    and forbidden, so the text does not depend on the hash seed.
    The constructor calls this after its checks; ``parse``, whose token
    regex admits only valid names, calls it directly."""
    trajectory = tuple(sorted(set(trajectory), key=sorted))
    final = tuple(sorted(set(final), key=sorted))
    clashes = [atom for atom in forbidden if any(
        atom.name in clause for clause in (trajectory if atom.kind == VISIT else final))]
    if clashes:
        raise SpecShapeError(f"{min(clashes).text()} is both required and forbidden")
    vars(spec).update(trajectory_clauses=trajectory, final_clauses=final, forbidden=forbidden)
    return spec


@dataclass(frozen=True)
class SpecVectors:
    """Formula compiled against a monitored net, as ascending place ids.

    ``trajectory[i]`` and ``final[i]`` hold the places of the spec's i-th
    ``trajectory_clauses`` and ``final_clauses`` entry; ``forbidden`` holds
    every place a negated atom binds. Each tuple is the support of one of
    the paper's 0/1 vectors: a basis marking M satisfies the formula iff
    z . M >= 1 for every trajectory clause z, d . M >= 1 for every final
    clause d, and g . M == 0 for the forbidden places g.
    """

    trajectory: Tuple[Tuple[int, ...], ...]
    final: Tuple[Tuple[int, ...], ...]
    forbidden: Tuple[int, ...]


def _expected(kind: str, m: re.Match) -> SpecSyntaxError:
    """The error of finding the token ``m`` where the grammar wants ``kind``."""
    return SpecSyntaxError(f"expected {kind}, found {m.lastgroup}",
                           position=m.start(m.lastindex))


def parse(text: str) -> BooleanSpec:
    """Parse formula text; raises SpecSyntaxError / SpecShapeError.

    One loop reads the matches of one token regex, where ``expect`` is what
    the grammar allows next: a ``"term"``, the atom after ``!``
    (``"negated"``), an atom inside parentheses (``"member"``), ``|`` or
    ``)`` after one (``"or"``), or ``&`` after a whole term (``"and"``).
    A character that starts no token is reported before any error of the
    grammar, so after the first such error the loop only looks for one.
    """
    if not isinstance(text, str):
        raise SpecSyntaxError(f"formula must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if stripped == "true":
        return BooleanSpec()
    if not stripped:
        raise SpecSyntaxError("empty formula (use 'true' for no constraints)")

    clauses = {VISIT: [], END: []}
    forbidden = set()
    kinds, names = set(), []  # of the atoms inside the open parentheses
    opened = 0
    expect = "term"
    error = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise SpecSyntaxError(f"unexpected character {m[kind]!r}", position=m.start(kind))
        if error is not None:
            continue
        if expect == "and":
            if kind == "and":
                expect = "term"
            else:
                error = _expected("and", m)
        elif expect == "or":
            if kind == "or":
                expect = "member"
            elif kind != "rp":
                error = _expected("rp", m)
            elif len(kinds) > 1:
                error = SpecShapeError("a disjunction may not mix visit and end atoms "
                                       f"(clause at position {opened})")
            else:
                clauses[kinds.pop()].append(frozenset(names))
                expect = "and"
        elif kind == "atom":
            if expect == "member":
                kinds.add(m[2])
                names.append(m[3])
                expect = "or"
            else:
                if expect == "negated":
                    forbidden.add(Atom(m[2], m[3]))
                else:
                    clauses[m[2]].append(frozenset((m[3],)))
                expect = "and"
        elif expect == "term" and kind == "not":
            expect = "negated"
        elif expect == "term" and kind == "lp":
            kinds, names, opened, expect = set(), [], m.start(kind), "member"
        else:
            error = _expected("atom", m)
    if error is not None:
        raise error
    if expect != "and":
        raise SpecSyntaxError(f"expected {'rp' if expect == 'or' else 'atom'}, "
                              "found end of input", position=len(text))
    return _canonical(object.__new__(BooleanSpec), clauses[VISIT], clauses[END], frozenset(forbidden))


def format_spec(spec: BooleanSpec) -> str:
    """Canonical text; ``parse(format_spec(s)) == s`` for every valid spec."""
    if spec.is_empty():
        return "true"
    parts = []
    for kind, clauses in ((VISIT, spec.trajectory_clauses), (END, spec.final_clauses)):
        for clause in clauses:
            atoms = [Atom(kind, n).text() for n in sorted(clause)]
            parts.append(atoms[0] if len(atoms) == 1 else "(" + " | ".join(atoms) + ")")
    parts.extend("!" + a.text() for a in sorted(spec.forbidden))
    return " & ".join(parts)


def compile_vectors(spec: BooleanSpec, net: PetriNet,
                    indicator_of: Mapping[str, int]) -> SpecVectors:
    """Bind the formula's atoms to places of a monitored net.

    Trajectory propositions bind to their indicator place via
    ``indicator_of``; end propositions bind to every place labeled with them
    (``PetriNet.end_places``, worked out once per net).
    Clauses keep the spec's order; each lists its places ascending and once.
    Unbound names raise :class:`UnknownPropositionError` (see ``_unbound``).
    """
    end_places = net.end_places
    try:
        trajectory = tuple(tuple(sorted({indicator_of[name] for name in clause}))
                           for clause in spec.trajectory_clauses)
        final = tuple(tuple(sorted({p for name in clause for p in end_places[name]}))
                      for clause in spec.final_clauses)
        forbidden = set()
        for atom in spec.forbidden:
            forbidden.update([indicator_of[atom.name]] if atom.kind == VISIT
                             else end_places[atom.name])
    except KeyError:
        raise _unbound(spec, {VISIT: indicator_of, END: end_places}) from None
    return SpecVectors(trajectory, final, tuple(sorted(forbidden)))


def _unbound(spec: BooleanSpec, bound: Mapping[str, Mapping]) -> UnknownPropositionError:
    """The error for a formula with a name ``bound`` lacks: the smallest
    such atom of the first clause that has one, in spec order, else of the
    forbidden atoms, so the text does not depend on the hash seed."""
    groups = chain(([Atom(VISIT, name) for name in clause] for clause in spec.trajectory_clauses),
                   ([Atom(END, name) for name in clause] for clause in spec.final_clauses),
                   [spec.forbidden])
    for group in groups:
        unbound = [atom for atom in group if atom.name not in bound[atom.kind]]
        if unbound:
            kind, name = min(unbound)
            family = "trajectory" if kind == VISIT else "final"
            return UnknownPropositionError(
                f"{family} proposition {name!r} is not defined by the environment")


def holds(spec: BooleanSpec, word: Sequence[frozenset],
          final_counts: Mapping[int, int], labels: Sequence[frozenset]) -> bool:
    """Evaluate the formula on a finished run of the movement net.

    ``word`` is the run's proposition word: the labels of the places
    occupied at its start, then those of each move's output places (see
    ``planner.Route``); ``labels`` are the movement net's place labels.
    ``final_counts`` is the ``{place: count}`` map of the places occupied
    at the run's end. Only the labels of those places are read, so the
    check costs the word and the occupied places.
    """
    occupied = map(labels.__getitem__, final_counts)
    visited = {a.name for a in frozenset().union(*word) if a.kind == VISIT}
    occupied_ends = {a.name for a in frozenset().union(*occupied) if a.kind == END}
    for clause in spec.trajectory_clauses:
        if not clause & visited:
            return False
    for clause in spec.final_clauses:
        if not clause & occupied_ends:
            return False
    for atom in spec.forbidden:
        if atom.kind == VISIT and atom.name in visited:
            return False
        if atom.kind == END and atom.name in occupied_ends:
            return False
    return True
