"""Solver-agnostic mixed-integer model: variables, linear rows, LP text.

A model is held in columns: one sequence per variable attribute, and the
rows as compressed sparse rows (row offsets into column-index and
coefficient sequences). Encoders fill each family of variables or rows for
every truck with one ModelBuilder.add_variables or add_rows call, which
refer to variables by column index; place lays out a row family's columns
truck after truck. The model is validated once, when it is built.

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
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress, cycle, repeat
from operator import add, gt, is_, ne, sub
from typing import Iterable, Iterator, Optional, Sequence

# inf, infinity and nan, in any case, would read back from LP text as numbers
_NAME = r"(?!(?i:inf|infinity|nan)(?:\n|\Z))[A-Za-z][A-Za-z0-9_]*"
NAME_RE = re.compile(_NAME)
# a whole column of names joined by newlines, checked in one regex pass
_NAMES_RE = re.compile(rf"{_NAME}(?:\n{_NAME})*")

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


def _check_names(names: list[str], what: str) -> None:
    if names and not _NAMES_RE.fullmatch("\n".join(names)):
        bad = next(name for name in names if not NAME_RE.fullmatch(name))
        raise ModelError(f"illegal {what} name {bad!r}")


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
        _check_names(self.names, "variable")
        _check_names(self.row_names, "row")
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
        starts, ends = self.row_start[:-1], self.row_start[1:]
        lengths = list(map(sub, ends, starts))
        if min(lengths, default=1) <= 0:
            i = next(i for i, length in enumerate(lengths) if length <= 0)
            raise ModelError(f"row {self.row_names[i]} has no terms")
        if self.cols and (min(self.cols) < 0 or max(self.cols) >= num_vars):
            k = next(k for k, j in enumerate(self.cols) if not 0 <= j < num_vars)
            raise ModelError(f"row {self.row_names[bisect_right(starts, k) - 1]} "
                             f"references undeclared variable {self.cols[k]}")
        row_terms = map(self.cols.__getitem__, map(slice, starts, ends))
        if any(map(ne, map(len, map(set, row_terms)), lengths)):
            for i, (s, e) in enumerate(zip(starts, ends)):
                terms = self.cols[s:e]
                j = next((j for k, j in enumerate(terms) if j in terms[:k]), None)
                if j is not None:
                    raise ModelError(f"row {self.row_names[i]}: repeated "
                                     f"variable {self.names[j]}")
        if not all(map(math.isfinite, chain(self.coefs, self.rhs))):
            i = next(i for i, (s, e) in enumerate(zip(starts, ends))
                     if not all(map(math.isfinite, self.coefs[s:e] + [self.rhs[i]])))
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

    add_variables and add_rows take one sequence per column and refer to
    variables by column index. build() hands its columns over to the model,
    row_start and cols as array('i') and objective as array('d'), and
    starts an empty one.
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
                 cols: Iterable[int], coefs: Iterable[float]) -> None:
        """Row i takes the next lengths[i] entries of cols and coefs.

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
        self._row_names.extend(names)
        self._senses.extend(senses)
        self._rhs.extend(rhs)
        ends = accumulate(lengths, initial=end)
        next(ends)  # the initial value is the previous row's end
        self._row_start.extend(ends)

    def build(self) -> MipModel:
        model = MipModel(
            names=self._names, kinds=self._kinds, lowers=self._lowers,
            uppers=self._uppers, objective=self._objective,
            row_names=self._row_names, senses=self._senses, rhs=self._rhs,
            row_start=self._row_start, cols=self._cols, coefs=self._coefs)
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

