"""Mutants: each breaks one correctness promise, and the tier-1 test that
guards that promise, called directly, must fail under it.

A mutant replaces one production function wherever the package binds it:
its home module and every module that re-binds it with `from .x import y`.
A mutant that no test kills is a hole in the suite, to be closed by a new
test that kills it, never by dropping the mutant.

| mutant                                   | killing test                                      |
| ---------------------------------------- | ------------------------------------------------- |
| the gate without pass 2                  | both differential tests in `test_properties`      |
| `_run` accepts a negative multiplier     | both differential tests, and `test_cli`'s bytes   |
| `certify` without its `L·U == A` clause  | `test_detect_and_decompose_mean_what_they_say`    |
| `certify` ignores a declared class       | `test_mclass`'s refusals before any factor        |
| `_table` without its U clause            | `test_mclass`'s refusals before any factor        |
| `first_minor` whatever the minor's sign  | `test_cli.test_size_guard_exit_code` and          |
|                                          | `test_check_tnn_means_what_it_says`               |
| `format_scalar` drops a sign             | `test_cli`'s exact refusal bytes past the guard   |
| `detect_class` without the certificate   | `test_detect_and_decompose_mean_what_they_say`    |
| `_step` skips the multiplier match       | `test_neville`'s replay refusals                  |
| `_pair` ignores one `DeleteRow`          | `test_detect_and_decompose_mean_what_they_say`    |
| `iter_minor_layers` one row set short    | `test_check_tnn_means_what_it_says`               |
| `_minor_num` flips one order-4 term      | `test_core.TestAllMinors`'s single minor calls    |
| `iter_minor_layers` flips one order-2    | `test_core.TestAllMinors`'s single minor calls    |
| product                                  |                                                   |
| `_table`'s residue one free column short | `test_detect_and_decompose_mean_what_they_say`    |

A mutant that edits a line or two of its function is that function
recompiled from its edited source (`edited`).

The pinned-output digests run the command line in a fresh interpreter,
which no in-process mutant reaches, so a mutant of the output is killed by
`test_cli`'s exact bytes, which run in process.  A killing test whose
`pytest.raises` sees no exception fails with `pytest.fail.Exception`, not
`AssertionError`; either counts as a kill.
"""

import __future__
import inspect
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import test_cli
import test_core
import test_mclass
import test_neville
import test_properties
from conftest import small_integer_matrices, small_rational_matrices
from tnnlu import DeleteRow, Eliminate, NotInClassError, NotTotallyNonnegativeError, detect_class, format_scalar
from tnnlu.core import _minor_num, first_minor, iter_minor_layers
from tnnlu.mclass import _factors, _table, certify
from tnnlu.neville import _move_precondition_failure, _not_tnn, _pair, _run, _step, _tnn_gate


def mutate(monkeypatch, original, mutant):
    """Bind ``mutant`` in place of ``original`` in every loaded `tnnlu` module."""
    bindings = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "tnnlu" or name.startswith("tnnlu.")
        for attr, value in vars(module).items()
        if value is original
    ]
    assert bindings, f"{original.__name__} is bound nowhere"
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, mutant)


def edited(function, *replacements):
    """``function`` recompiled from its source with each (old, new) pair of
    ``replacements`` applied, each old text found exactly once; its globals
    are a copy of its module's, so the module itself is left as it is."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in replacements:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[function.__module__]))
    flags = __future__.annotations.compiler_flag
    exec(compile(source, inspect.getsourcefile(function), "exec", flags, dont_inherit=True), namespace)
    return namespace[function.__name__]


def assert_killed(test, *args):
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        test(*args)


def test_the_gate_without_pass_2(monkeypatch):
    def pass_1_only(A):
        if any(min(row, default=0) < 0 for row in A._rows):
            return None
        try:
            return _run(A, None, _not_tnn)
        except NotTotallyNonnegativeError:
            return None

    mutate(monkeypatch, _tnn_gate, pass_1_only)
    assert_killed(test_properties.test_check_tnn_means_what_it_says)
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)


def test_run_accepts_a_negative_multiplier(monkeypatch, capsys):
    mutate(monkeypatch, _run, edited(
        _run, ("if (a < 0) != (b < 0):", "if False:"), ("and lam.numerator < 0:", "and False:")
    ))
    assert_killed(test_properties.test_check_tnn_means_what_it_says)
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)
    assert_killed(test_cli.test_neville_rejects_negative_multiplier_beyond_the_guard, capsys)


def test_certify_without_its_product_clause(monkeypatch):
    def certify_without_product(A, desc=None):
        table = _table(A)
        failure = table[-1]
        if failure is not None and not failure.startswith("A - L*U"):
            raise NotInClassError(failure)
        return _factors(A, table)

    mutate(monkeypatch, certify, certify_without_product)
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)


def test_certify_ignores_a_declared_class(monkeypatch):
    mutate(monkeypatch, certify, lambda A, desc=None: certify(A))
    for rows, desc, message in test_mclass.REFUSALS:
        if message.startswith("not in declared class"):
            assert_killed(test_mclass.test_certify_refuses_before_building_factors, monkeypatch, rows, desc, message)


def test_table_without_its_u_clause(monkeypatch):
    mutate(monkeypatch, _table, edited(_table, ("if any(R[i][k]", "if False and any(R[i][k]")))
    assert_killed(test_mclass.test_certify_refuses_before_building_factors, monkeypatch, *test_mclass.REFUSALS[0])


def test_first_minor_whatever_its_sign(monkeypatch, capsys):
    def first_minor_any_sign(A, fails, *args, **kwargs):
        return first_minor(A, lambda rows, cols, value: True, *args, **kwargs)

    mutate(monkeypatch, first_minor, first_minor_any_sign)
    assert_killed(test_cli.test_size_guard_exit_code, capsys)
    assert_killed(test_properties.test_check_tnn_means_what_it_says)


def test_format_scalar_drops_a_sign(monkeypatch, capsys):
    mutate(monkeypatch, format_scalar, lambda value: format_scalar(abs(value)))
    assert_killed(test_cli.test_neville_rejects_negative_multiplier_beyond_the_guard, capsys)
    assert_killed(test_cli.test_size_guard_exit_code, capsys)


def test_detect_class_without_the_certificate(monkeypatch):
    mutate(monkeypatch, detect_class, lambda A: _table(A)[5])
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)


def test_step_skips_the_multiplier_match(monkeypatch):
    def step_trusting_the_state(state, move):
        if type(move) is Eliminate and _move_precondition_failure(state, move.s, move.t) is None:
            u, du, s, t = state.u, state.du, move.s, move.t
            move = move._replace(multiplier=Fraction(u[s][t - 1] * du[s - 1], u[s - 1][t - 1] * du[s]))
        return _step(state, move)

    mutate(monkeypatch, _step, step_trusting_the_state)
    replays = test_neville.TestReplayAndTraceText()
    assert_killed(replays.test_replay_rejects_wrong_multiplier)
    assert_killed(replays.test_replay_checks_every_move_inside_a_sweep)


def test_pair_ignores_one_delete_row(monkeypatch):
    def pair_skipping_the_last_delete(A, state, moves, stages=None):
        last = max((k for k, move in enumerate(moves) if type(move) is DeleteRow), default=None)
        return _pair(A, state, moves if last is None else moves[:last] + moves[last + 1 :], stages)

    mutate(monkeypatch, _pair, pair_skipping_the_last_delete)
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)


def test_iter_minor_layers_one_row_set_short(monkeypatch):
    def one_row_set_short(A, max_order=None):
        return iter(list(iter_minor_layers(A, max_order))[:-1])

    mutate(monkeypatch, iter_minor_layers, one_row_set_short)
    assert_killed(test_properties.test_check_tnn_means_what_it_says)


def assert_single_minor_calls_killed():
    """`test_core.TestAllMinors.test_matches_single_minor_calls`' body under a
    @given of its own, which does not shrink what it finds: hypothesis refuses
    to run one @given method from a second instance of its class."""
    body = test_core.TestAllMinors.test_matches_single_minor_calls.hypothesis.inner_test

    @settings(test_core.SETTINGS, phases=(Phase.generate,))
    @given(st.one_of(small_integer_matrices(), small_rational_matrices()), st.data())
    def single_minor_calls(A, data):
        body(test_core.TestAllMinors(), A, data)

    assert_killed(single_minor_calls)


def test_minor_num_flips_one_order_4_term(monkeypatch):
    flipped = edited(_minor_num, (
        "- (r[a] * s[c] - r[c] * s[a]) * (t[b] * u[d] - t[d] * u[b])",
        "+ (r[a] * s[c] - r[c] * s[a]) * (t[b] * u[d] - t[d] * u[b])",
    ))
    mutate(monkeypatch, _minor_num, flipped)
    assert_single_minor_calls_killed()


def test_iter_minor_layers_flips_one_order_2_product(monkeypatch):
    flipped = edited(iter_minor_layers, ("above[a] * row[b] - above[b]", "above[a] * row[b] + above[b]"))
    mutate(monkeypatch, iter_minor_layers, flipped)
    assert_single_minor_calls_killed()


def test_table_scans_the_residue_one_unpivoted_column_short(monkeypatch):
    short = edited(_table, ("for k in free_cols if R[h][k]", "for k in free_cols[:-1] if R[h][k]"))
    mutate(monkeypatch, _table, short)
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)
