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
from typing import Mapping, Sequence, Tuple

from .errors import SpecShapeError, SpecSyntaxError, UnknownPropositionError
from .petri import END, VISIT, Atom, PetriNet

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")

_TOKENS = (
    ("atom", re.compile(r"(visit|end)\s*\(\s*([A-Za-z0-9_]+)\s*\)")),
    ("and", re.compile(r"&")),
    ("or", re.compile(r"\|")),
    ("not", re.compile(r"!")),
    ("lp", re.compile(r"\(")),
    ("rp", re.compile(r"\)")),
)


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
        object.__setattr__(self, "trajectory_clauses", _norm_clauses(self.trajectory_clauses))
        object.__setattr__(self, "final_clauses", _norm_clauses(self.final_clauses))
        forbidden = frozenset(self.forbidden)
        for atom in forbidden:
            if not isinstance(atom, Atom) or atom.kind not in (VISIT, END):
                raise SpecShapeError(f"forbidden entry {atom!r} is not a visit/end atom")
            if not _NAME_RE.fullmatch(atom.name):
                raise SpecShapeError(f"bad proposition name {atom.name!r}")
        object.__setattr__(self, "forbidden", forbidden)
        positives = {
            VISIT: set().union(*self.trajectory_clauses) if self.trajectory_clauses else set(),
            END: set().union(*self.final_clauses) if self.final_clauses else set(),
        }
        for atom in forbidden:
            if atom.name in positives[atom.kind]:
                raise SpecShapeError(
                    f"{atom.text()} is both required and forbidden")

    def is_empty(self) -> bool:
        return not (self.trajectory_clauses or self.final_clauses or self.forbidden)


def _norm_clauses(clauses) -> Tuple[frozenset, ...]:
    seen = set()
    out = []
    for clause in clauses:
        clause = frozenset(clause)
        if not clause:
            raise SpecShapeError("empty clause")
        for name in clause:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise SpecShapeError(f"bad proposition name {name!r}")
        if clause not in seen:
            seen.add(clause)
            out.append(clause)
    return tuple(sorted(out, key=lambda cl: tuple(sorted(cl))))


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


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        for kind, rx in _TOKENS:
            m = rx.match(text, i)
            if m:
                tokens.append((kind, m, i))
                i = m.end()
                break
        else:
            raise SpecSyntaxError(f"unexpected character {text[i]!r}", position=i)
    return tokens


def parse(text: str) -> BooleanSpec:
    """Parse formula text; raises SpecSyntaxError / SpecShapeError."""
    if not isinstance(text, str):
        raise SpecSyntaxError(f"formula must be a string, got {type(text).__name__}")
    if text.strip() == "true":
        return BooleanSpec()
    tokens = _tokenize(text)
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

    def take_atom() -> Atom:
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
    ``indicator_of``; end propositions bind to every place labeled with them.
    Clauses keep the spec's order; each lists its places ascending and once.
    Unbound names raise :class:`UnknownPropositionError`.
    """
    def indicator(name: str) -> int:
        try:
            return indicator_of[name]
        except KeyError:
            raise UnknownPropositionError(
                f"trajectory proposition {name!r} is not defined by the environment") from None

    def end_places(name: str):
        atom = Atom(END, name)
        places = [p for p, labels in enumerate(net.labels) if atom in labels]
        if not places:
            raise UnknownPropositionError(
                f"final proposition {name!r} is not defined by the environment")
        return places

    trajectory = tuple(tuple(sorted({indicator(name) for name in clause}))
                       for clause in spec.trajectory_clauses)
    final = tuple(tuple(sorted({p for name in clause for p in end_places(name)}))
                  for clause in spec.final_clauses)
    forbidden = set()
    for atom in spec.forbidden:
        forbidden.update([indicator(atom.name)] if atom.kind == VISIT
                         else end_places(atom.name))
    return SpecVectors(trajectory, final, tuple(sorted(forbidden)))


def holds(spec: BooleanSpec, word: Sequence[frozenset],
          final_counts: Mapping[int, int], labels: Sequence[frozenset]) -> bool:
    """Evaluate the formula on a finished run of the movement net.

    ``word`` is the proposition word from :func:`tampnet.petri.replay`
    (initial occupancy included); ``labels`` are the movement net's place
    labels. ``final_counts`` is the ``{place: count}`` map of the places
    occupied at the run's end (``ReplayResult.counts``). Only the labels of
    those places are read, so the check costs the word and the occupied
    places.
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
