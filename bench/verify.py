"""The benchmark's own correctness checker.

It imports nothing from the package: the determinant, product and rank
profile below are separate code, so a bug shared with the program cannot
hide itself.  `check` holds each op's exit code and output to what the
op's construction predicts (see `inputs.py`):

* a factorization must pass the class certificate: L column echelon with
  unit leads at rows r, U row echelon with leads at columns c, and
  L·U == A.  By Cauchy-Binet any such product is a member of class (r, c),
  and a member's factors are unique, so the certificate proves the output
  right.  The leaders must also be the ones the input was built with.
* a `--trace` move list is replayed and must end at the printed U, with
  every multiplier >= 0 on TNN input.
* `detect` must name the leaders the input was built with, or none.
* a `check-tnn` witness is recomputed and must be negative and no larger
  than the negative minor planted in the input.
* an error exit must carry the category its exit code stands for.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Rows = list[list[Fraction]]
Leaders = tuple[tuple[int, ...], tuple[int, ...]]

CATEGORIES = {3: "parse-error", 4: "class-not-found", 5: "not-tnn", 6: "size-guard", 7: "bad-input"}


def det(rows: Rows) -> Fraction:
    """Determinant by Gaussian elimination with row swaps."""
    work = [row[:] for row in rows]
    n = len(work)
    value = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            value = -value
        p = work[k][k]
        value *= p
        for i in range(k + 1, n):
            f = work[i][k] / p
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return value


def matmul(A: Rows, B: Rows, ncols: int) -> Rows:
    cols = [[row[j] for row in B] for j in range(ncols)]
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in A]


def pivot_columns(rows: Rows, ncols: int) -> tuple[int, ...]:
    """1-based columns j where rank(A[:, :j]) exceeds rank(A[:, :j-1])."""
    work = [row[:] for row in rows]
    pivots = []
    lead = 0
    for j in range(ncols):
        p = next((i for i in range(lead, len(work)) if work[i][j] != 0), None)
        if p is None:
            continue
        work[lead], work[p] = work[p], work[lead]
        for i in range(lead + 1, len(work)):
            f = work[i][j] / work[lead][j]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[lead])]
        pivots.append(j + 1)
        lead += 1
    return tuple(pivots)


def rank_profile(rows: Rows, ncols: int) -> Leaders:
    """(rows, columns) where the prefix rank grows.  For a class member
    these are its leaders: with A = L·U, the top i rows have rank
    #{k : r_k <= i}, and dually for columns."""
    transposed = [[row[j] for row in rows] for j in range(ncols)]
    return pivot_columns(transposed, len(rows)), pivot_columns(rows, ncols)


def leading_minors_nonzero(rows: Rows) -> bool:
    """Every leading principal minor of a square matrix is nonzero: the
    pivots of elimination without row swaps are their successive ratios."""
    work = [row[:] for row in rows]
    for k in range(len(work)):
        p = work[k][k]
        if p == 0:
            return False
        for i in range(k + 1, len(work)):
            f = work[i][k] / p
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return True


class OutputError(Exception):
    """Output that does not parse as the documented text format."""


def _index_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise OutputError(f"not an index set: {text!r}")
    body = text[1:-1]
    return tuple(int(x) for x in body.split(",")) if body else ()


def _parse_class(line: str) -> Optional[Leaders]:
    if not line.startswith("class: "):
        raise OutputError(f"expected a class line, got {line!r}")
    body = line[len("class: "):]
    if body == "none":
        return None
    rpart, sep, cpart = body.partition(", c = ")
    if not sep or not rpart.startswith("r = "):
        raise OutputError(f"bad class line {line!r}")
    return _index_set(rpart[len("r = "):]), _index_set(cpart)


def _parse_matrix(lines: list[str], at: int) -> tuple[Rows, int, int, int]:
    """(rows, m, n, next line) for a matrix block starting at `at`."""
    m, n = (int(x) for x in lines[at].split())
    count = m if n else 0
    rows = [[Fraction(tok) for tok in line.split()] for line in lines[at + 1 : at + 1 + count]]
    if len(rows) != count or any(len(row) != n for row in rows):
        raise OutputError("matrix block has the wrong shape")
    if not n:
        rows = [[] for _ in range(m)]
    return rows, m, n, at + 1 + count


def _check_echelon(L: Rows, U: Rows, r: tuple[int, ...], c: tuple[int, ...]) -> Optional[str]:
    for k, rk in enumerate(r):
        if any(L[i][k] != 0 for i in range(rk - 1)) or L[rk - 1][k] != 1:
            return f"L column {k + 1} does not lead with 1 at row {rk}"
    for k, ck in enumerate(c):
        if any(U[k][j] != 0 for j in range(ck - 1)) or U[k][ck - 1] == 0:
            return f"U row {k + 1} does not lead at column {ck}"
    return None


def _replay(A: Rows, moves: list[str], tnn: bool) -> Rows:
    """Apply an `E s t p` / `D i` move list to A and return the final U."""
    work = [row[:] for row in A]
    for line in moves:
        tokens = line.split()
        if tokens[0] == "D":
            i = int(tokens[1])
            if any(work[i - 1]):
                raise OutputError(f"trace deletes nonzero row {i}")
            del work[i - 1]
            continue
        s, t, lam = int(tokens[1]), int(tokens[2]), Fraction(tokens[3])
        if work[s - 1][t - 1] == 0 or lam != work[s][t - 1] / work[s - 1][t - 1]:
            raise OutputError(f"trace move {line!r} does not match the state")
        if tnn and lam < 0:
            raise OutputError(f"negative multiplier in {line!r} on TNN input")
        work[s] = [x - lam * y for x, y in zip(work[s], work[s - 1])]
    return work


def check_factorization(op, out: str) -> Optional[str]:
    lines = out.splitlines()
    expected_method = op.argv[op.argv.index("--method") + 1] if "--method" in op.argv else "auto"
    if lines[0] != f"method: {expected_method}":
        return f"wrong method line {lines[0]!r}"
    leaders = _parse_class(lines[1])
    if leaders is None:
        return "decomposition printed class none"
    r, c = leaders
    if lines[2] != "L:":
        raise OutputError("missing L block")
    L, m, t, at = _parse_matrix(lines, 3)
    if lines[at] != "U:":
        raise OutputError("missing U block")
    U, t2, n, at = _parse_matrix(lines, at + 1)
    A = op.matrix
    if (m, n) != (len(A), len(A[0])) or not t == t2 == len(r) == len(c):
        return "factor shapes do not fit the input and the class"
    if list(r) != sorted(set(r)) or list(c) != sorted(set(c)):
        return "leaders are not strictly ascending"
    if (r and not 1 <= r[0] <= r[-1] <= m) or (c and not 1 <= c[0] <= c[-1] <= n):
        return "leaders out of range"
    failure = _check_echelon(L, U, r, c)
    if failure:
        return failure
    if matmul(L, U, n) != A:
        return "L·U != A"
    if leaders != op.leaders:
        return f"class {leaders} but the input was built in class {op.leaders}"
    if "--trace" in op.argv:
        if lines[at : at + 1] != ["trace:"] or lines[at + 1 :] == ["unavailable"]:
            return "trace missing"
        if _replay(A, lines[at + 1 :], op.tnn is True) != U:
            return "trace does not replay to the printed U"
    return None


def check_detect(op, out: str) -> Optional[str]:
    lines = out.splitlines()
    if len(lines) != 1:
        raise OutputError("detect prints one line")
    found = _parse_class(lines[0])
    if found != op.leaders:
        return f"detect said {found}, the input was built with {op.leaders}"
    return None


def check_tnn(op, out: str) -> Optional[str]:
    lines = out.splitlines()
    if len(lines) != 2 or lines[0] not in ("is_tnn: true", "is_tnn: false"):
        raise OutputError("check-tnn prints a verdict and a witness line")
    verdict = lines[0] == "is_tnn: true"
    if verdict != op.tnn:
        return f"check-tnn said {verdict}, the input was built {'' if op.tnn else 'not '}TNN"
    if verdict:
        return None if lines[1] == "witness: none" else "TNN verdict with a witness"
    head, sep, value = lines[1].partition("] = ")
    if not (sep and head.startswith("witness: [")):
        raise OutputError(f"bad witness line {lines[1]!r}")
    rows_text, _, cols_text = head[len("witness: ["):].partition("|")
    rows, cols = _index_set(rows_text), _index_set(cols_text)
    if len(rows) != len(cols) or not rows:
        return "witness index sets are not a square minor"
    recomputed = det([[op.matrix[i - 1][j - 1] for j in cols] for i in rows])
    if recomputed != Fraction(value) or recomputed >= 0:
        return f"witness {lines[1]!r} recomputes to {recomputed}"
    if len(rows) > op.witness_max:
        return f"witness of size {len(rows)}; a negative minor of size {op.witness_max} comes first"
    return None


def check_selftest(op, out: str) -> Optional[str]:
    lines = out.splitlines()
    instances = op.argv[op.argv.index("--instances") + 1]
    if not lines or lines[-1] != "ok":
        return "selftest did not report ok"
    for line in lines[:-1]:
        if not line.endswith(f": {instances} instances, 0 failures"):
            return f"selftest line {line!r}"
    return None if len(lines) == 6 else "selftest ran the wrong number of families"


_FACTOR_KINDS = ("decompose", "neville", "reconstruct", "explicit")

_CHECKERS = {
    "decompose": check_factorization,
    "neville": check_factorization,
    "reconstruct": check_factorization,
    "explicit": check_factorization,
    "detect": check_detect,
    "check_tnn": check_tnn,
    "selftest": check_selftest,
}


def _verdict(op, out: str) -> Optional[str]:
    try:
        return _CHECKERS[op.kind](op, out)
    except (OutputError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc}"


def check(op, code: int, out: str, err: str) -> Optional[str]:
    """Why this outcome of `op` is wrong, or None when it is right."""
    if code not in op.codes:
        reason = f"exit {code}, expected one of {sorted(op.codes)}"
        if code == 0 and op.matrix is not None and op.kind in _FACTOR_KINDS:
            # Say what is wrong with an answer that should not exist.
            detail = _verdict(op, out)
            reason += f"; the output has {detail}" if detail else "; the output passes the certificate"
        return f"{reason}: {err.strip()[:200]}" if err.strip() else reason
    if code != 0:
        category = CATEGORIES.get(code)
        if out or not err.startswith(f"error: {category}: "):
            return f"exit {code} without its '{category}' error message"
        return None
    return _verdict(op, out)
