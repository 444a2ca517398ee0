"""Standalone MIP solver process: checks an LP file with parse_lp, loads it
with HiGHS's own LP reader through scipy's bundled HiGHS binding, loaded by
itself (no scipy.optimize, no numpy), solves it, and writes a 'name value'
solution file. HiGHS picks its reader by suffix, so the model's name must end
in '.lp' (any case). A binary whose bounds leave [0, 1] is clamped to them.

Usage: ppdsp-highs MODEL.lp SOLUTION.sol [TIME_LIMIT_S]

With two or more CPUs to run on, the child races two forked HiGHS copies,
with random seeds 0 and 1, so it holds up to two models at once; the time
limit is still one wall-clock limit. The first copy to end Optimal,
Infeasible or Error wins; else, once both end, one with an incumbent beats
one without, and then the smaller gap wins. So which of several optimal
plans, or which incumbent at a limit, comes back can differ between runs.
One copy, with seed 0, runs on one CPU, in a process that had loaded the
HiGHS binding before main, and in solve_lp. A copy hands its answer back
in memory, so the child writes SOLUTION.sol and no other file.

The solution file starts with '# status <Status>' and '# objective <value>'
comment lines and, after a branch-and-bound run, '# gap', '# dual_bound' (in
the model's own sense) and '# nodes' (the winning copy's count) lines, then
one 'name value' line per nonzero variable. A zero objective or bound is
written as 0.0, not -0.0.

Each constraint is one 'name: terms <op> rhs' line: its comparator <op>
('<=', '>=' or '=') is its next-to-last token, its rhs a number, and no
other '<', '>' or '=' appears after the name. A row with text after its rhs
('c1: x + y <= 3 z'), a second comparator ('c1: x + y <= 3 >= 4',
'c1: x < y <= 3'), no rhs ('c1: x + y <=') or a rhs that is not a number
('c1: x <= abc') is refused with an LpParseError naming the line, as is a
bound whose value is not a number ('0 <= x <= abc'). The solve refuses a NaN
coefficient, rhs or bound, naming its constraint or variable, and a name
repeated in the objective. A model HiGHS's reader refuses ends as Error.

Exit status: 0 when a solution file was written; 1 when no raced copy
answered; 2 on wrong usage, a model name not ending in '.lp', a time limit
that is not a positive number (NaN included; 'inf' means no limit), an
unreadable or non-UTF-8 model, an LP the parser or the solve refuses, a
missing HiGHS binding or an unwritable solution file. Each gives its reason
on one stderr line 'ppdsp-highs: <reason>'.
"""

from __future__ import annotations

import gc
import importlib.machinery
import importlib.util
import marshal
import os
import re
import signal
import sys
from itertools import chain
from math import inf, isnan

SECTIONS = ("maximize", "minimize", "subject to", "bounds", "generals",
            "binaries", "end")
# str.lower() never shortens a string, so a longer line is not a header
_LONGEST_SECTION = max(map(len, SECTIONS))
# the sections that list names, read from their spans of the text
_NAME_LISTS = ("generals", "binaries")
# a non-empty line, as str.splitlines() ends lines
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


class LpParseError(ValueError):
    pass


def _split_sections(text: str) -> dict[str, list]:
    """Each section's lines, unstripped: a stripped copy of every line would
    hold the LP text a second time. A name-list section (Generals, Binaries)
    is given instead as the (begin, end) spans of the text that hold it, one
    per header, so that its lines are not held while the rows are read."""
    sections: dict[str, list] = {}
    current = None
    begin = end = 0
    for line in text.splitlines(keepends=True):
        start, end = end, end + len(line)
        stripped = line.strip()
        if not stripped or stripped[0] == "\\":
            continue
        if len(stripped) <= _LONGEST_SECTION and (low := stripped.lower()) in SECTIONS:
            if current in _NAME_LISTS:
                sections[current].append((begin, start))
            current, begin = low, end
            sections.setdefault(current, [])
            continue
        if current is None:
            raise LpParseError(f"content before first section: {stripped!r}")
        if current not in _NAME_LISTS:
            sections[current].append(line)
    if current in _NAME_LISTS:
        sections[current].append((begin, end))
    return sections


# float() can read a token only if it starts with a sign, a digit or a point,
# or is an infinity or nan word (or starts outside ASCII, where float() also
# takes other scripts' digits). Every other token is a variable name, so it
# is classified without the ValueError that float() would raise for it.
_NAME_START = frozenset(map(chr, range(128))) - set("0123456789.+-iInN")
# each comparator token -> the one str object that every row shares
_COMPARATORS = {op: op for op in ("<=", ">=", "=")}


class _Numbers(dict):
    """One parse's number tokens: `numbers[tok]` is float(tok), or None where
    float() refuses tok, computed once per distinct token, so that its
    repeats share one value."""

    def __missing__(self, tok: str) -> float | None:
        try:
            value = float(tok)
        except ValueError:
            value = None
        self[tok] = value
        return value


def _bound_value(tok: str, line: str, numbers: _Numbers) -> float:
    value = numbers[tok]
    if value is None:
        raise LpParseError(f"bound value {tok!r} is not a number in {line.strip()!r}")
    return value


def parse_lp(text: str):
    """Returns (sense, objective terms, rows, bounds, integer names, binary
    names) where rows are (name, terms, sense, rhs). Every occurrence of a
    variable name, a comparator or a number is one shared object, and so is
    every unit term (name, 1.0) or (name, -1.0) of one name and sign, and
    every coefficient read as '- <number>' of one number token.

    The parse lets go of the objective's lines once its terms are built, and
    of each constraint line, in file order, once its row is built, so the
    lines and the rows made from them are not all held at once. The Generals
    and Binaries names are read last, one line at a time from their spans
    of the text, so their lines are never all held. A file with several
    faults still reports the first one in file order."""
    sections = _split_sections(text)
    if "maximize" in sections:
        sense = "max"
        objective_lines = sections.pop("maximize")
    elif "minimize" in sections:
        sense = "min"
        objective_lines = sections.pop("minimize")
    else:
        raise LpParseError("no objective section")
    obj_tokens = [tok for line in objective_lines
                  for tok in (line.partition(":")[2] if ":" in line else line).split()]
    # one parse's shared objects: the str first read for each variable name
    # (added on first sight), each number token's value, the negated value of
    # each number token read after '-', and each name's unit terms (name, 1.0)
    # and (name, -1.0). `names` holds no number token, so that read_terms can
    # read any token in it as a name: the sections after the rows, which may
    # hold any token, add to it only once every expression is read
    names: dict[str, str] = {}
    numbers = _Numbers()
    negated: dict[str, float] = {}
    plus: dict[str, tuple[str, float]] = {}
    minus: dict[str, tuple[str, float]] = {}

    def read_terms(tokens: list[str]) -> list[tuple[str, float]]:
        """Parse '3 x + y - 2 z' style linear expressions into (name,
        coefficient) terms, built from the shared objects."""
        terms: list[tuple[str, float]] = []
        append = terms.append
        known = names.get
        units = plus  # the unit terms of the pending sign
        coef = None  # the pending coefficient, signed, if one was read
        for tok in tokens:
            if tok == "+" or tok == "-":
                if coef is not None:
                    raise LpParseError(f"a number without a name before {tok!r}")
                units = plus if tok == "+" else minus
            elif coef is None and (term := units.get(tok)) is not None:
                append(term)
                units = plus
            elif ((name := known(tok)) is not None or tok[0] in _NAME_START
                  or (value := numbers[tok]) is None):
                if name is None:
                    name = names[tok] = tok
                if coef is None:
                    term = units[name] = (name, 1.0 if units is plus else -1.0)
                    append(term)
                else:
                    append((name, coef))
                units, coef = plus, None
            elif coef is not None:
                raise LpParseError(f"two consecutive numbers near {tok!r}")
            elif units is minus:
                coef = negated.get(tok)
                if coef is None:
                    coef = negated[tok] = -value
            else:
                coef = value
        if coef is not None:
            raise LpParseError("dangling coefficient at end of expression")
        return terms

    # what is built here holds no reference cycles, so the cyclic collector
    # would only re-scan it; pause it, and leave it as the caller had it
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            objective = read_terms(obj_tokens)
        except LpParseError as exc:
            raise LpParseError(f"{exc} in the objective") from None
        del obj_tokens, objective_lines
        # each row line goes, in file order, once its row is built
        lines = sections.pop("subject to", [])
        lines.reverse()
        rows = []
        while lines:
            line = lines.pop()
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
                terms = read_terms(tokens)
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

    def read_names(spans: list[tuple[int, int]]) -> list[str]:
        """The names listed in a section's spans of the text, read one line
        at a time, blank and comment lines skipped; each is the str first
        read for it."""
        lines = chain.from_iterable(_LINE.finditer(text, begin, end)
                                    for begin, end in spans)
        return [names.setdefault(tok, tok)
                for tokens in map(str.split, map(re.Match.group, lines))
                if tokens and tokens[0][0] != "\\"
                for tok in tokens]

    integers = read_names(sections.get("generals", []))
    binaries = read_names(sections.get("binaries", []))
    return sense, objective, rows, bounds, integers, binaries


# scipy's bundled HiGHS binding (scipy >= 1.17), by its full module name
_BINDING = "scipy.optimize._highspy._core"


class SolverMissing(ImportError):
    """scipy's bundled HiGHS binding cannot be found or loaded."""


def _highs():
    """scipy's bundled HiGHS binding, loaded by itself from its file: neither
    scipy's nor scipy.optimize's __init__ runs, so numpy is never imported.

    The module is kept in sys.modules under its own name, so a later import
    of scipy.optimize reuses it, and a process that imported scipy.optimize
    first gets the module that scipy.optimize loaded.
    """
    module = sys.modules.get(_BINDING)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None and scipy.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_BINDING)
    if spec is None:
        raise SolverMissing(f"scipy's HiGHS binding {_BINDING} was not found; "
                            "ppdsp-highs needs Python>=3.11 and scipy>=1.17")
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise SolverMissing(f"scipy's HiGHS binding {spec.origin} does not load: "
                            f"{exc}") from None
    sys.modules[_BINDING] = module
    return module


# HiGHS model status -> (status word without an incumbent, word with one);
# every other model status, kModelError included, is "Error"
_STATUS_WORDS = {
    "kOptimal": ("Optimal", "Optimal"),
    "kTimeLimit": ("TimeLimit", "Feasible"),
    "kIterationLimit": ("TimeLimit", "Feasible"),
    "kInfeasible": ("Infeasible", "Infeasible"),
}
_ERROR_WORDS = ("Error", "Error")
_SEEDS = (0, 1)  # the raced copies' HiGHS random seeds; one copy runs the first


def _binary_clamps(path: str) -> list[tuple[str, float, float]]:
    """Reads the LP file at `path` with parse_lp and refuses a NaN, or a name
    repeated in the objective, with an LpParseError. Returns (name, lower,
    upper), clamped to [0, 1], of each binary whose bounds leave [0, 1]."""
    with open(path) as fh:
        _, objective, rows, bounds, _, binaries = parse_lp(fh.read())
    for name, terms, _, rhs in rows:
        if isnan(rhs) or any(isnan(coef) for _, coef in terms):
            raise LpParseError(f"NaN coefficient or rhs in constraint {name!r}")
    if any(isnan(coef) for _, coef in objective):
        raise LpParseError("NaN coefficient in the objective")
    if len(dict(objective)) < len(objective):  # HiGHS would keep only the last
        raise LpParseError("a name is repeated in the objective")
    for name, (lo, hi) in bounds.items():
        if isnan(lo) or isnan(hi):
            raise LpParseError(f"NaN bound of {name!r}")
    binary = set(binaries)
    return [(name, max(0.0, lo), min(1.0, hi)) for name, (lo, hi) in bounds.items()
            if name in binary and (lo < 0.0 or hi > 1.0)]


def solve_lp(path: str, time_limit_s: float | None = None):
    """Solve the LP file at `path` with HiGHS once _binary_clamps has checked
    it. Returns (status word, objective value or None, {name: value},
    telemetry), where telemetry holds HiGHS's 'gap', 'dual_bound' (in the
    model's own sense) and 'nodes' after a branch-and-bound run, and is
    empty otherwise. A time limit of None or inf means no limit."""
    return _solve_seed(path, _binary_clamps(path), time_limit_s, 0)


def _solve_seed(path: str, clamps, time_limit_s: float | None, seed: int):
    """solve_lp's answer from one HiGHS copy, given the file's clamps."""
    highs = _highs()
    solver = highs._Highs()
    options = highs.HighsOptions()
    options.log_to_console = False
    options.random_seed = seed
    if time_limit_s is not None:
        options.time_limit = float(time_limit_s)
    solver.passOptions(options)
    if solver.readModel(path) == highs.HighsStatus.kError:
        return "Error", None, {}, {}
    for name, lo, hi in clamps:
        solver.changeColBounds(solver.getColByName(name)[1], lo, hi)
    solver.run()
    info = solver.getInfo()
    incumbent = info.primal_solution_status == highs.kSolutionStatusFeasible
    status = _STATUS_WORDS.get(solver.getModelStatus().name, _ERROR_WORDS)[incumbent]
    telemetry = {}
    if info.mip_node_count >= 0:
        # maximizing, HiGHS gives a NaN gap where there is no incumbent, and
        # a zero dual bound as -0.0; + 0.0 here and at the return makes it 0.0
        telemetry = {"gap": info.mip_gap if incumbent else inf,
                     "dual_bound": info.mip_dual_bound + 0.0,
                     "nodes": info.mip_node_count}
    if status not in ("Optimal", "Feasible"):
        return status, None, {}, telemetry
    values = dict(zip(solver.getLp().col_names_, solver.getSolution().col_value))
    return status, info.objective_function_value + 0.0, values, telemetry


def solve_lp_text(text: str, time_limit_s: float | None = None):
    """The first three items of solve_lp on the text, written to a
    temporary .lp file: (status, objective value or None, {name: value})."""
    import tempfile  # here, so that the solver child does not import it
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.lp")
        with open(path, "w") as fh:
            fh.write(text)
        return solve_lp(path, time_limit_s)[:3]


def _write_answer(path: str, answer) -> None:
    """Writes a solve_lp answer to the solution file at `path`."""
    status, objective, values, telemetry = answer
    with open(path, "w") as fh:
        fh.write(f"# status {status}\n")
        if objective is not None:
            fh.write(f"# objective {objective!r}\n")
        for key, value in telemetry.items():
            fh.write(f"# {key} {value!r}\n")
        for name, value in values.items():
            if value != 0.0:
                fh.write(f"{name} {value!r}\n")


def _race(model_path: str, clamps, time_limit_s):
    """Races a forked HiGHS copy per seed in _SEEDS; returns the winner's
    answer, or None if none answered. A copy marshals its answer into a
    memfd opened before the fork (a pipe would block a large answer before
    its copy exits). No copy outlives the call, Ctrl-C, a SIGTERM (as
    `timeout` sends) or, on Linux, a SIGKILL to this process included."""
    workers = {}  # pid -> its copy's answer file
    files = []
    best, best_rank = None, ()
    on_term = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    parent = os.getpid()
    try:
        for seed in _SEEDS:
            files.append(answer_file := open(os.memfd_create("answer"), "w+b"))
            if (pid := os.fork()) == 0:  # the copy, which skips the parent's cleanup
                signal.signal(signal.SIGTERM, on_term)
                try:
                    if sys.platform == "linux":  # die with a parent killed outright
                        import ctypes  # here, so the parent imports no more
                        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
                    if os.getppid() != parent:  # it died before the prctl
                        os._exit(1)
                    marshal.dump(_solve_seed(model_path, clamps, time_limit_s, seed),
                                 answer_file)
                    answer_file.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            workers[pid] = answer_file
        while workers and best_rank[:1] != (True,):
            pid, wait_status = os.wait()
            # None: a child that this race did not start
            if (answer_file := workers.pop(pid, None)) is not None and wait_status == 0:
                answer_file.seek(0)
                status, objective, _, telemetry = answer = marshal.load(answer_file)
                # a proof or a refusal ends the race; else an incumbent, then the gap
                rank = (status in ("Optimal", "Infeasible", "Error"),
                        objective is not None, -telemetry.get("gap", inf))
                if rank > best_rank:
                    best, best_rank = answer, rank
        return best
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for answer_file in files:
            answer_file.close()
        signal.signal(signal.SIGTERM, on_term)


def main(argv: list[str] | None = None) -> int:
    # a fork would not copy the scheduler threads of a HiGHS that has run
    race = (_BINDING not in sys.modules and hasattr(os, "memfd_create")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= len(_SEEDS))
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        print("ppdsp-highs: usage: MODEL.lp SOLUTION.sol [TIME_LIMIT_S]", file=sys.stderr)
        return 2
    model_path, solution_path = args[0], args[1]
    if not model_path.lower().endswith(".lp"):
        print(f"ppdsp-highs: model {model_path!r} does not end in '.lp'", file=sys.stderr)
        return 2
    try:
        time_limit = float(args[2]) if len(args) == 3 else None
    except ValueError:
        print(f"ppdsp-highs: time limit {args[2]!r} is not a number", file=sys.stderr)
        return 2
    if time_limit is not None and not time_limit > 0:  # NaN too
        print(f"ppdsp-highs: time limit {args[2]!r} is not a positive number",
              file=sys.stderr)
        return 2
    try:
        clamps = _binary_clamps(model_path)
        _highs()  # a missing binding is reported once, before any fork
        answer = (_race(model_path, clamps, time_limit) if race
                  else _solve_seed(model_path, clamps, time_limit, 0))
        if answer is None:
            print("ppdsp-highs: no HiGHS copy answered", file=sys.stderr)
            return 1
        _write_answer(solution_path, answer)
    except (LpParseError, SolverMissing, OSError, UnicodeDecodeError) as exc:
        print(f"ppdsp-highs: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
