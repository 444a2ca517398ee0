"""Standalone MIP solver process: reads an LP file, solves it with HiGHS
(via scipy.optimize.milp), writes a 'name value' solution file.

Usage: ppdsp-highs MODEL.lp SOLUTION.sol [TIME_LIMIT_S]

The solution file starts with '# status <Status>' and '# objective <value>'
comment lines, followed by one 'name value' line per nonzero variable.

Each constraint is one 'name: terms <op> rhs' line: its comparator <op>
('<=', '>=' or '=') is its next-to-last token, its rhs a number, and no
other '<', '>' or '=' appears after the name. A row with text after its rhs
('c1: x + y <= 3 z'), a second comparator ('c1: x + y <= 3 >= 4',
'c1: x < y <= 3'), no rhs ('c1: x + y <=') or a rhs that is not a number
('c1: x <= abc') is refused with an LpParseError naming the line, as is a
bound whose value is not a number ('0 <= x <= abc').

Exit status: 0 when a solution file was written; 2 on wrong usage, a time
limit that is not a number, an unreadable or non-UTF-8 model, an LP the
parser refuses or an unwritable solution file, with the reason on one
stderr line 'ppdsp-highs: <reason>'.
"""

from __future__ import annotations

import gc
import sys

SECTIONS = ("maximize", "minimize", "subject to", "bounds", "generals",
            "binaries", "end")
# str.lower() never shortens a string, so a longer line is not a header
_LONGEST_SECTION = max(map(len, SECTIONS))


class LpParseError(ValueError):
    pass


def _split_sections(text: str) -> dict[str, list[str]]:
    """Each section's lines, unstripped: a stripped copy of every line would
    hold the LP text a second time."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped[0] == "\\":
            continue
        if len(stripped) <= _LONGEST_SECTION and (low := stripped.lower()) in SECTIONS:
            current = low
            sections.setdefault(current, [])
            continue
        if current is None:
            raise LpParseError(f"content before first section: {stripped!r}")
        sections[current].append(line)
    return sections


# float() can read a token only if it starts with a sign, a digit or a point,
# or is an infinity or nan word (or starts outside ASCII, where float() also
# takes other scripts' digits). Every other token is a variable name, so it
# is classified without the ValueError that float() would raise for it.
_NAME_START = frozenset(map(chr, range(128))) - set("0123456789.+-iInN")
_NONFINITE_WORDS = frozenset({"inf", "infinity", "nan"})
# each comparator token -> the one str object that every row shares
_COMPARATORS = {op: op for op in ("<=", ">=", "=")}


def _number(tok: str) -> float | None:
    """float(tok), or None where float() refuses tok."""
    if tok[0] in "iInN" and tok.lower() not in _NONFINITE_WORDS:
        return None
    try:
        return float(tok)
    except ValueError:
        return None


class _Numbers(dict):
    """One parse's number tokens: `numbers[tok]` is `_number(tok)`, computed
    once per distinct token, so that its repeats share one value."""

    def __missing__(self, tok: str) -> float | None:
        value = self[tok] = _number(tok)
        return value


def _parse_terms(tokens: list[str], names: dict[str, str],
                 numbers: _Numbers) -> list[tuple[str, float]]:
    """Parse '3 x + y - 2 z' style linear expressions. A variable name is
    read as the str that `names` holds for it (added on first sight)."""
    terms: list[tuple[str, float]] = []
    append = terms.append
    known = names.get
    scale = 1.0  # the pending sign times the pending coefficient
    has_coef = False
    for tok in tokens:
        if tok == "+":
            scale, has_coef = 1.0, False
        elif tok == "-":
            scale, has_coef = -1.0, False
        elif (name := known(tok)) is not None:
            append((name, scale))
            scale, has_coef = 1.0, False
        elif tok[0] in _NAME_START or (value := numbers[tok]) is None:
            names[tok] = tok
            append((tok, scale))
            scale, has_coef = 1.0, False
        elif has_coef:
            raise LpParseError(f"two consecutive numbers near {tok!r}")
        else:
            scale *= value
            has_coef = True
    if has_coef:
        raise LpParseError("dangling coefficient at end of expression")
    return terms


def _bound_value(tok: str, line: str, numbers: _Numbers) -> float:
    value = numbers[tok]
    if value is None:
        raise LpParseError(f"bound value {tok!r} is not a number in {line.strip()!r}")
    return value


def parse_lp(text: str):
    """Returns (sense, objective terms, rows, bounds, integer names, binary
    names) where rows are (name, terms, sense, rhs). Every occurrence of a
    variable name, a comparator or a number is one shared object."""
    sections = _split_sections(text)
    if "maximize" in sections:
        sense = "max"
        objective_lines = sections["maximize"]
    elif "minimize" in sections:
        sense = "min"
        objective_lines = sections["minimize"]
    else:
        raise LpParseError("no objective section")
    obj_tokens: list[str] = []
    for line in objective_lines:
        _, _, rest = line.partition(":")
        obj_tokens.extend((rest if rest or ":" in line else line).split())
    # one object per distinct token. `_parse_terms` reads any token in
    # `names` as a name, so numbers are kept apart (a name such as 'I' has
    # the number None), and the sections after the rows, which may hold any
    # token, add to `names` only once every expression is read
    names: dict[str, str] = {}
    numbers = _Numbers()
    # what is built here holds no reference cycles, so the cyclic collector
    # would only re-scan it; pause it, and leave it as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        objective = _parse_terms(obj_tokens, names, numbers)
        rows = []
        for line in sections.get("subject to", []):
            name, colon, rest = line.partition(":")
            if not colon:
                raise LpParseError(f"constraint without name: {line.strip()!r}")
            tokens = rest.split()
            # 'terms <op> rhs', and no other '<', '>' or '=' in the row
            op = _COMPARATORS.get(tokens[-2]) if len(tokens) >= 2 else None
            if op is None:
                raise LpParseError(f"constraint does not end in '<op> rhs': "
                                   f"{line.strip()!r}")
            if rest.count("<") + rest.count(">") + rest.count("=") != len(op):
                raise LpParseError(f"constraint with more than one comparator: "
                                   f"{line.strip()!r}")
            if (rhs := numbers[tokens[-1]]) is None:  # float()'s own words
                raise LpParseError(f"could not convert string to float: "
                                   f"{tokens[-1]!r} in constraint {line.strip()!r}")
            del tokens[-2:]
            try:
                terms = _parse_terms(tokens, names, numbers)
            except LpParseError as exc:
                raise LpParseError(f"{exc} in constraint {line.strip()!r}") from None
            rows.append((name.strip(), terms, op, rhs))

        bounds: dict[str, tuple[float, float]] = {}
        for line in sections.get("bounds", []):
            tokens = line.split()
            if len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                bounds[names.setdefault(tokens[2], tokens[2])] = (
                    _bound_value(tokens[0], line, numbers),
                    _bound_value(tokens[4], line, numbers))
            elif len(tokens) == 3 and tokens[1] == "=":
                value = _bound_value(tokens[2], line, numbers)
                bounds[names.setdefault(tokens[0], tokens[0])] = (value, value)
            else:
                raise LpParseError(f"unsupported bound line: {line.strip()!r}")
    finally:
        if collecting:
            gc.enable()

    integers = [names.setdefault(t, t) for line in sections.get("generals", [])
                for t in line.split()]
    binaries = [names.setdefault(t, t) for line in sections.get("binaries", [])
                for t in line.split()]
    return sense, objective, rows, bounds, integers, binaries


def solve_lp_text(text: str, time_limit_s: float | None = None):
    """Returns (status string, objective value or None, {name: value})."""
    import numpy as np
    from scipy import optimize, sparse

    sense, objective, rows, bounds, integers, binaries = parse_lp(text)
    names: list[str] = []
    index: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    for name, _ in objective:
        intern(name)
    for _, terms, _, _ in rows:
        for name, _ in terms:
            intern(name)
    for name in list(bounds) + integers + binaries:
        intern(name)

    num = len(names)
    c = np.zeros(num)
    for name, coef in objective:
        c[index[name]] += coef
    if sense == "max":
        c = -c

    lower = np.zeros(num)
    upper = np.full(num, np.inf)
    binary_set = set(binaries)
    for name in binaries:
        upper[index[name]] = 1.0
    for name, (lo, hi) in bounds.items():
        if name in binary_set:
            lower[index[name]] = max(0.0, lo)
            upper[index[name]] = min(1.0, hi)
        else:
            lower[index[name]] = lo
            upper[index[name]] = hi

    integrality = np.zeros(num)
    for name in integers + binaries:
        integrality[index[name]] = 1

    constraints = []
    if rows:
        data, row_idx, col_idx, lo_rhs, hi_rhs = [], [], [], [], []
        for i, (_, terms, op, rhs) in enumerate(rows):
            for name, coef in terms:
                data.append(coef)
                row_idx.append(i)
                col_idx.append(index[name])
            if op == "<=":
                lo_rhs.append(-np.inf)
                hi_rhs.append(rhs)
            elif op == ">=":
                lo_rhs.append(rhs)
                hi_rhs.append(np.inf)
            else:
                lo_rhs.append(rhs)
                hi_rhs.append(rhs)
        matrix = sparse.csr_matrix((data, (row_idx, col_idx)),
                                   shape=(len(rows), num))
        constraints = [optimize.LinearConstraint(matrix, lo_rhs, hi_rhs)]

    options = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    result = optimize.milp(c, constraints=constraints,
                           bounds=optimize.Bounds(lower, upper),
                           integrality=integrality, options=options)

    if result.status == 0:
        status = "Optimal"
    elif result.status == 1:
        status = "Feasible" if result.x is not None else "TimeLimit"
    elif result.status == 2:
        status = "Infeasible"
    else:
        status = "Error"
    if result.x is None:
        return status, None, {}
    objective_value = float(result.fun)
    if sense == "max":
        objective_value = -objective_value
    values = {names[i]: float(result.x[i]) for i in range(num)}
    return status, objective_value, values


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    model_path, solution_path = args[0], args[1]
    try:
        time_limit = float(args[2]) if len(args) == 3 else None
    except ValueError:
        print(f"ppdsp-highs: time limit {args[2]!r} is not a number", file=sys.stderr)
        return 2
    try:
        with open(model_path) as fh:
            text = fh.read()
        status, objective, values = solve_lp_text(text, time_limit)
        with open(solution_path, "w") as fh:
            fh.write(f"# status {status}\n")
            if objective is not None:
                fh.write(f"# objective {objective!r}\n")
            for name, value in values.items():
                if value != 0.0:
                    fh.write(f"{name} {value!r}\n")
    except (LpParseError, OSError, UnicodeDecodeError) as exc:
        print(f"ppdsp-highs: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
