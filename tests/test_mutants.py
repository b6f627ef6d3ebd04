"""Mutants: each breaks one correctness promise, and the tier-1 test that
guards that promise, called directly, must fail under it.

A mutant replaces one production function wherever the package binds it:
its home module and every module that re-binds it with `from .x import y`.
A mutant that no test kills is a hole in the suite, to be closed by a new
test that kills it, never by dropping the mutant.

| mutant                                   | killing test                                      |
| ---------------------------------------- | ------------------------------------------------- |
| the gate without pass 2                  | both differential tests in `test_properties`      |
| `certify` without its `L·U == A` clause  | `test_detect_and_decompose_mean_what_they_say`    |
| `first_minor` whatever the minor's sign  | `test_cli.test_size_guard_exit_code`              |
| `format_scalar` drops a sign             | `test_cli`'s exact refusal bytes past the guard   |
| `detect_class` without the certificate   | `test_detect_and_decompose_mean_what_they_say`    |
| `_step` skips the multiplier match       | `test_neville`'s replay refusals                  |

The pinned-output digests run the command line in a fresh interpreter,
which no in-process mutant reaches, so a mutant of the output is killed by
`test_cli`'s exact bytes, which run in process.  A killing test whose
`pytest.raises` sees no exception fails with `pytest.fail.Exception`, not
`AssertionError`; either counts as a kill.
"""

import sys
from fractions import Fraction

import pytest

import test_cli
import test_neville
import test_properties
from tnnlu import Eliminate, NotInClassError, NotTotallyNonnegativeError, detect_class, format_scalar
from tnnlu.core import first_minor
from tnnlu.mclass import _factors, _table, certify
from tnnlu.neville import _move_precondition_failure, _not_tnn, _run, _step, _tnn_gate


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


def test_certify_without_its_product_clause(monkeypatch):
    def certify_without_product(A, desc=None):
        table = _table(A, desc)
        failure = table[-1]
        if failure is not None and not failure.startswith("A - L*U"):
            raise NotInClassError(failure)
        return _factors(A, table)

    mutate(monkeypatch, certify, certify_without_product)
    assert_killed(test_properties.test_detect_and_decompose_mean_what_they_say)


def test_first_minor_whatever_its_sign(monkeypatch, capsys):
    def first_minor_any_sign(A, fails, *args, **kwargs):
        return first_minor(A, lambda rows, cols, value: True, *args, **kwargs)

    mutate(monkeypatch, first_minor, first_minor_any_sign)
    assert_killed(test_cli.test_size_guard_exit_code, capsys)


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
