"""Solver-agnostic mixed-integer model: variables, linear rows, LP text.

A model is held in columns: one sequence per variable attribute, and the
rows as compressed sparse rows (row offsets into column-index and
coefficient sequences). Encoders fill each family of variables or rows for
every truck with one ModelBuilder call, which refers to variables by column
index. ModelBuilder.add_family checks a row family's layout and the parts
of its row names once, in one truck's work, when it is called: against the
variables declared so far, and before rows that add_rows added earlier are
checked at all. The model is validated once, when it is built: build()
checks names and terms only of rows from add_rows, each check over all of
them in row order before the next, and a model built directly gets every
check on every row. Variables, and the finiteness of every coefficient and
rhs, are checked over the whole model.

ModelBuilder keeps the row offsets and column indices as array('i') and the
objective as array('d'): these hold one distinct number per entry, which a
list would keep as one Python object each. The other columns stay lists,
whose entries repeat a few shared objects.

Models are not changed once built (nothing writes to a model's columns);
emission and the census are pure.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import accumulate, chain, compress, cycle, repeat
from operator import add, eq, gt, is_, ne, sub
from typing import Iterable, Iterator, Optional, Sequence

# inf, infinity and nan, in any case, would read back from LP text as numbers
_NAME = r"(?!(?i:inf|infinity|nan)(?:\n|\Z))[A-Za-z][A-Za-z0-9_]*"
NAME_RE = re.compile(_NAME)
# a column of names, of add_family's name prefixes or of its suffixes joined
# by newlines, matched in one pass; a prefix holding a digit or an
# underscore starts no number word, whatever suffix follows it
_NAMES_RE, _PREFIXES_RE, _SUFFIXES_RE = (
    re.compile(rf"{part}(?:\n{part})*")
    for part in (_NAME, "[A-Za-z]+[0-9_][A-Za-z0-9_]*", "[A-Za-z0-9_]*"))

NEG_INF = float("-inf")
POS_INF = float("inf")


class VarKind(Enum):
    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


class Sense(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class ModelError(ValueError):
    pass


class SolutionParseError(ValueError):
    pass


def _all_match(pattern: re.Pattern, parts: Sequence[str]) -> bool:
    text = "\n".join(parts)  # the count refuses a part holding a newline
    return not parts or bool(pattern.fullmatch(text)) and text.count("\n") == len(parts) - 1


def _check_names(names: list[str], what: str) -> None:
    if not _all_match(_NAMES_RE, names):
        bad = next(name for name in names if not NAME_RE.fullmatch(name))
        raise ModelError(f"illegal {what} name {bad!r}")


def _repeated(seq: Sequence, total: int) -> Sequence:  # len(seq) must divide total
    if total % len(seq) if seq else total:
        raise ModelError("row columns differ in length")
    return seq if len(seq) == total else list(seq) * (total // len(seq))


def _check_rows(row_names: Sequence[str], row_start: Sequence[int],
                cols: Sequence[int], names: Sequence[str], blocks: Iterable[range]) -> None:
    """Of the rows in blocks, row i named row_names[i] with terms
    cols[row_start[i]:row_start[i+1]], refuses the first with no terms, else the
    first undeclared term, else the first repeat; each sought over all blocks."""
    parts = [(rows, row_start[rows.start:rows.stop + 1]) for rows in blocks]
    lengths = [list(map(sub, bounds[1:], bounds[:-1])) for _, bounds in parts]
    for (rows, _), row_lengths in zip(parts, lengths):
        if min(row_lengths, default=1) <= 0:
            i = next(i for i, length in enumerate(row_lengths) if length <= 0)
            raise ModelError(f"row {row_names[rows.start + i]} has no terms")
    for rows, bounds in parts:
        terms = cols[bounds[0]:bounds[-1]]
        if terms and (min(terms) < 0 or max(terms) >= len(names)):
            k = bounds[0] + next(k for k, j in enumerate(terms) if not 0 <= j < len(names))
            i = bisect_right(row_start, k, rows.start, rows.stop) - 1
            raise ModelError(f"row {row_names[i]} references undeclared variable {cols[k]}")
    for (rows, bounds), row_lengths in zip(parts, lengths):
        row_terms = list(map(cols.__getitem__, map(slice, bounds[:-1], bounds[1:])))
        if any(map(ne, map(len, map(set, row_terms)), row_lengths)):
            i, terms = next((i, t) for i, t in enumerate(row_terms) if len(set(t)) < len(t))
            j = next(j for k, j in enumerate(terms) if j in terms[:k])
            raise ModelError(f"row {row_names[rows.start + i]}: repeated variable {names[j]}")


@dataclass(frozen=True)
class MipModel:
    """A maximization model; variable and row order is the build order.

    Variable j is names[j], of kind kinds[j], within [lowers[j], uppers[j]],
    with objective coefficient objective[j]. Row i is row_names[i]: the sum
    of coefs[k] times variable cols[k] over k in row_start[i]:row_start[i+1],
    compared by senses[i] with rhs[i]. ModelBuilder gives row_start and cols
    as array('i') and objective as array('d'); a model given lists there is
    checked, and refused, alike.
    """

    names: list[str]
    kinds: list[VarKind]
    lowers: list[float]
    uppers: list[float]
    objective: Sequence[float]
    row_names: list[str]
    senses: list[Sense]
    rhs: list[float]
    row_start: Sequence[int]
    cols: Sequence[int]
    coefs: list[float]
    # (name, rows, checked) per row family, recorded by ModelBuilder only
    row_families: Sequence[tuple] = field(default=(), init=False, compare=False)

    def __post_init__(self):
        """Whole-model checks: the columns agree in length, names are legal
        and distinct, bounds are numbers and hold, objective coefficients are
        finite, and every row has terms, each naming a declared variable at
        most once, with finite coefficients and rhs."""
        num_vars, num_rows = len(self.names), len(self.row_names)
        if not (len(self.kinds) == len(self.lowers) == len(self.uppers)
                == len(self.objective) == num_vars):
            raise ModelError("variable columns differ in length")
        if not (len(self.senses) == len(self.rhs) == num_rows
                and len(self.row_start) == num_rows + 1
                and self.row_start[0] == 0 and self.row_start[-1] == len(self.cols)
                and len(self.coefs) == len(self.cols)):
            raise ModelError("row columns differ in length")
        unchecked = ([rows for _, rows, checked in self.row_families if not checked]
                     if self.row_families else [range(num_rows)])
        _check_names(self.names, "variable")
        for rows in unchecked:
            _check_names(self.row_names[rows.start:rows.stop], "row")
        if len(set(self.names)) != num_vars:
            raise ModelError("duplicate variable names")
        if any(map(math.isnan, chain(self.lowers, self.uppers))):
            j = next(j for j in range(num_vars)
                     if math.isnan(self.lowers[j]) or math.isnan(self.uppers[j]))
            raise ModelError(f"variable {self.names[j]}: bound is NaN")
        if not all(map(math.isfinite, self.objective)):
            j = next(j for j in range(num_vars) if not math.isfinite(self.objective[j]))
            raise ModelError(f"variable {self.names[j]}: objective coefficient "
                             f"{self.objective[j]!r} is not finite")
        binary = list(map(is_, self.kinds, repeat(VarKind.BINARY)))
        if (min(compress(self.lowers, binary), default=0) < 0
                or max(compress(self.uppers, binary), default=1) > 1):
            j = next(j for j in compress(range(num_vars), binary)
                     if not (0 <= self.lowers[j] and self.uppers[j] <= 1))
            raise ModelError(f"binary variable {self.names[j]} has bounds outside [0,1]")
        if any(map(gt, self.lowers, self.uppers)):
            j = next(j for j in range(num_vars) if self.lowers[j] > self.uppers[j])
            raise ModelError(f"variable {self.names[j]}: lower bound above upper")
        _check_rows(self.row_names, self.row_start, self.cols, self.names, unchecked)
        if not all(map(math.isfinite, chain(self.coefs, self.rhs))):
            i = next(i for i, (s, e) in enumerate(zip(self.row_start, self.row_start[1:]))
                     if not all(map(math.isfinite, chain(self.coefs[s:e], [self.rhs[i]]))))
            raise ModelError(f"row {self.row_names[i]}: coefficient or rhs is not finite")


def place(offsets: Sequence[int], families: Sequence[int],
          fleet: Iterable[Sequence[int]]) -> Iterator[int]:
    """Column indices of a row family's terms, laid out as family-relative
    offsets, for a whole fleet: truck 0's columns, then truck 1's, and so on.

    fleet holds one bases sequence per truck. For a truck, the k-th term is
    column bases[families[k % len(families)]] + offsets[k].
    """
    return chain.from_iterable(map(add, offsets, cycle([bases[f] for f in families]))
                               for bases in fleet)


class ModelBuilder:
    """Collects a model column by column; build() validates it once.

    add_variables, add_rows and add_family take one sequence per column and
    refer to variables by column index. build() hands its columns over to
    the model, row_start and cols as array('i') and objective as array('d'),
    with the row families it recorded, and starts an empty one.
    """

    def __init__(self):
        self._names: list[str] = []
        self._kinds: list[VarKind] = []
        self._lowers: list[float] = []
        self._uppers: list[float] = []
        self._objective = array("d")
        self._row_names: list[str] = []
        self._senses: list[Sense] = []
        self._rhs: list[float] = []
        self._row_start = array("i", [0])
        self._cols = array("i")
        self._coefs: list[float] = []
        self._row_families: list[tuple[str, range, bool]] = []

    def add_variables(self, names: Sequence[str], kind: VarKind,
                      lowers: Sequence[float], uppers: Sequence[float],
                      objective: Sequence[float]) -> int:
        """A family of variables of one kind; returns the column index of
        its first variable."""
        if not len(names) == len(lowers) == len(uppers) == len(objective):
            raise ModelError("variable columns differ in length")
        first = len(self._names)
        self._names.extend(names)
        self._kinds.extend(repeat(kind, len(names)))
        self._lowers.extend(lowers)
        self._uppers.extend(uppers)
        self._objective.extend(objective)
        return first

    def add_rows(self, names: Sequence[str], senses: Sequence[Sense],
                 rhs: Sequence[float], lengths: Sequence[int],
                 cols: Iterable[int], coefs: Iterable[float], family: str = "") -> None:
        """The row family named family: row i takes the next lengths[i]
        entries of cols and coefs.

        Terms are kept as given, zero coefficients included; build()
        refuses an undeclared variable or one repeated within a row. A
        column index that array('i') cannot hold (too large, or not an int)
        is refused here, and the rows are not added.
        """
        if not len(names) == len(senses) == len(rhs) == len(lengths):
            raise ModelError("row columns differ in length")
        end = self._row_start[-1]
        try:
            self._cols.extend(cols)
        except (OverflowError, TypeError) as exc:
            del self._cols[end:]
            raise ModelError(f"column index out of range: {exc}") from None
        self._coefs.extend(coefs)
        if not len(self._cols) == len(self._coefs) == end + sum(lengths):
            del self._cols[end:], self._coefs[end:]
            raise ModelError("row lengths do not match the terms")
        first = len(self._row_names)
        self._row_names.extend(names)
        self._senses.extend(senses)
        self._rhs.extend(rhs)
        ends = accumulate(lengths, initial=end)
        next(ends)  # the initial value is the previous row's end
        self._row_start.extend(ends)
        self._row_families.append((family, range(first, len(self._row_names)), False))

    def add_family(self, name: str, prefixes: Sequence[Sequence[str]],
                   suffixes: Sequence[str], senses: Sequence[Sense],
                   rhs: Sequence[float], lengths: Sequence[int],
                   offsets: Sequence[int], families: Sequence[int],
                   fleet: Sequence[Sequence[int]], coefs: Sequence[float]) -> None:
        """add_rows for the row family name, laid out alike for each truck.

        Truck t, with bases fleet[t], has a row per suffix, its row i named
        prefixes[t][i % len(prefixes[t])] + suffixes[i] and taking the next
        lengths[i] of its columns place(offsets, families, [fleet[t]]).
        lengths repeats over a truck's rows; senses, rhs and coefs over the
        fleet's rows and terms.

        Checked here, once, with build()'s messages, and nothing is added if
        refused: the name parts; each variable family's offset span in every
        truck; one truck's rows if the spans are declared and apart. Unlike
        add_rows, a family may not name a variable added after it, and its
        refusal comes before build() checks any earlier add_rows rows.
        """
        lengths = _repeated(lengths, len(suffixes))
        names = list(chain.from_iterable(map(add, cycle(p), suffixes) for p in prefixes))
        if not (len(prefixes) == len(fleet) and len(names) == len(suffixes) * len(fleet)
                and sum(lengths) == len(offsets) and (families or not offsets)):
            raise ModelError("row columns differ in length")
        if not (_all_match(_PREFIXES_RE, list(chain.from_iterable(prefixes)))
                and _all_match(_SUFFIXES_RE, suffixes)):
            _check_names(names, "row")
        spans = [(f, min(part), max(part)) for f in set(families)
                 if (part := list(compress(offsets, cycle(map(eq, families, repeat(f))))))]
        apart = all(s[0][0] >= 0 and s[-1][1] < len(self._names)
                    and all(a[1] < b[0] for a, b in zip(s, s[1:]))
                    for s in (sorted((bases[f] + lo, bases[f] + hi) for f, lo, hi in spans)
                              for bases in fleet) if s)
        # with spans apart, a column names one (family, offset), alike in every truck
        trucks = fleet[:1] if apart else fleet
        _check_rows(names, list(accumulate(lengths * len(trucks), initial=0)),
                    list(place(offsets, families, trucks)), self._names,
                    [range(len(lengths) * len(trucks))])
        self.add_rows(names, _repeated(senses, len(names)), _repeated(rhs, len(names)),
                      lengths * len(fleet), place(offsets, families, fleet),
                      _repeated(coefs, len(offsets) * len(fleet)), name)
        self._row_families[-1] = (name, self._row_families[-1][1], True)

    def build(self) -> MipModel:
        model = MipModel.__new__(MipModel)  # the constructor would record no family
        vars(model).update((f.name, getattr(self, "_" + f.name)) for f in fields(MipModel))
        model.__post_init__()
        self.__init__()
        return model


def census(model: MipModel) -> tuple[int, int]:
    """(variable count, row count); bound declarations are not rows."""
    return len(model.names), len(model.row_names)


def _num(x: float) -> str:
    # shortest representation that round-trips
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _term_text(coef: float) -> str:
    """What precedes a variable's name as a later term of an expression; a
    first term drops the "+ ", and a "- " stays."""
    sign = "+" if coef >= 0 else "-"
    mag = abs(coef)
    return f"{sign} {_num(mag)} " if mag != 1 else f"{sign} "


def emit_lp(model: MipModel) -> str:
    """CPLEX-LP format text, byte-identical for identical models."""
    names, objective, row_start = model.names, model.objective, model.row_start
    term_text = {coef: _term_text(coef) for coef in {*model.coefs, *objective}}
    nonzero = list(map(ne, objective, repeat(0.0)))
    if any(nonzero):
        obj_line = " obj: " + " ".join(map(
            add, map(term_text.__getitem__, compress(objective, nonzero)),
            compress(names, nonzero))).removeprefix("+ ")
    else:
        obj_line = " obj: 0 " + names[0] if names else " obj:"
    lines: list[str] = ["Maximize", obj_line, "Subject To"]
    texts = list(map(add, map(term_text.__getitem__, model.coefs),
                     map(names.__getitem__, model.cols)))
    sense_text = {sense: sense.value for sense in Sense}
    rhs_text = {rhs: _num(rhs) for rhs in set(model.rhs)}
    lines.extend(f" {name}: {' '.join(texts[s:e]).removeprefix('+ ')} "
                 f"{sense_text[sense]} {rhs_text[rhs]}"
                 for name, s, e, sense, rhs in zip(model.row_names, row_start,
                                                   row_start[1:], model.senses,
                                                   model.rhs))
    del texts  # the row lines hold these texts again
    lines.append("Bounds")
    bound_text = {bound: _num(bound) for bound in {*model.lowers, *model.uppers}
                  if bound not in (NEG_INF, POS_INF)}
    bound_text[NEG_INF], bound_text[POS_INF] = "-inf", "+inf"
    generals: list[str] = []
    binaries: list[str] = []
    for name, kind, lower, upper in zip(names, model.kinds, model.lowers, model.uppers):
        if kind is VarKind.BINARY:
            binaries.append(name)
            if (lower, upper) == (0.0, 1.0):
                continue
        elif kind is VarKind.INTEGER:
            generals.append(name)
        lines.append(f" {bound_text[lower]} <= {name} <= {bound_text[upper]}")
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines += "End", ""  # the text ends in a newline, with no second copy
    return "\n".join(lines)


_STATUS_NAMES = {"optimal": "Optimal", "feasible": "Feasible",
                 "infeasible": "Infeasible", "timelimit": "TimeLimit"}


def parse_solution(text: str, model: MipModel) -> tuple[str, Optional[dict[str, float]]]:
    """Read a solver's answer: (status, assignment), the assignment None
    unless the status is Optimal or Feasible; unnamed variables are 0 in it.

    A header is a line whose stripped text starts with '#'; the status line
    is the first header whose first two tokens are '#' and 'status', and it
    holds exactly one word more. Other lines are 'name value'; values alone
    are Feasible, a solution but no proof of optimality. Raises
    SolutionParseError for a malformed status line, a declared Error or
    unknown status, no status and no values, a bad value line, or a
    variable given twice.
    """
    status: Optional[str] = None
    value_lines: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens[:2] == ["#", "status"] and status is None:
            if len(tokens) != 3:
                raise SolutionParseError(
                    f"line {lineno}: malformed status line {line.strip()!r}")
            status = _STATUS_NAMES.get(tokens[2].lower(), tokens[2])
        elif tokens and not tokens[0].startswith("#"):
            value_lines.append((lineno, tokens))
    if status is None:
        if not value_lines:
            raise SolutionParseError("solver wrote neither a status nor values")
        status = "Feasible"
    if status not in _STATUS_NAMES.values():
        raise SolutionParseError(f"solver declared status {status!r}")
    if status not in ("Optimal", "Feasible"):
        return status, None
    values: dict[str, float] = dict.fromkeys(model.names, 0.0)
    given: set[str] = set()
    for lineno, tokens in value_lines:
        if len(tokens) != 2:
            raise SolutionParseError(f"line {lineno}: expected 'name value'")
        name, value_text = tokens
        try:
            value = float(value_text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):  # nan would slip past the objective check
            raise SolutionParseError(f"line {lineno}: bad value {value_text!r}")
        if name not in values:
            raise SolutionParseError(f"line {lineno}: unknown variable {name}")
        if name in given:
            raise SolutionParseError(f"line {lineno}: variable {name} given twice")
        given.add(name)
        values[name] = value
    return status, values


def objective_value(model: MipModel, assignment: dict[str, float]) -> float:
    return sum(coef * assignment.get(name, 0.0)
               for name, coef in zip(model.names, model.objective))

