"""Expression language: parsing, printing, differentiation, evaluation.

The differentiation oracle is a 4th-order central finite difference,
independent of the symbolic rules under test; the rules on DAG slots
are also held to the same rules applied to AST nodes
(`tests_support.diff_expr_reference`), tree for tree and bit for bit
in every field jet.  The evaluation oracle is
`walk_reference`, a recursive tree walk that evaluates one AST node by
node; a tape must reproduce it bit for bit.
"""

import gc
import itertools
import math
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypocert import assumptions as asm
from hypocert import expressions, fields, geometry, solver
from hypocert.errors import (
    ExprDomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from hypocert.expressions import (
    BinOp,
    Call,
    Const,
    Coord,
    Neg,
    Tape,
    Theta,
    diff_expr,
    evaluate,
    neg,
    parse_expr,
    to_string,
    uses_theta,
)
from hypocert.fields import ExprScalarField, ExprVectorField, FDField
from hypocert.models import (
    builtin_classical,
    builtin_relativistic,
    load_model_file,
    log_weight_field,
)

from tests_support import (
    conformal_model_2d,
    count_builder_dags,
    diff_expr_reference,
    empty_program_table,
    jet_reference,
)


def fd_derivative(ast, points, k, theta=None, h=1e-5):
    """4th-order central difference in coordinate k (1-based)."""
    P = np.asarray(points, dtype=float)
    out = np.zeros(P.shape[0])
    for sign, coef in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
        Q = P.copy()
        Q[:, k - 1] += sign * h
        out += coef * evaluate(ast, Q, theta=theta)
    return out / (12.0 * h)


def random_safe_ast(rng, depth, n_coords=3, allow_theta=True):
    """Random AST whose value and derivatives stay tame on [-1, 1]^M."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.45 or not allow_theta and r < 0.85:
            return Coord(int(rng.integers(1, n_coords + 1)))
        if r < 0.75:
            return Const(float(np.round(rng.uniform(0.3, 1.7), 4)))
        if r < 0.85:
            return Theta() if allow_theta else Coord(1)
        return Coord(int(rng.integers(1, n_coords + 1)))
    op = rng.choice(
        ["add", "sub", "mul", "div", "sqrt1", "exp", "log1", "pow2", "pow15", "neg"]
    )
    a = random_safe_ast(rng, depth - 1, n_coords, allow_theta)
    if op in ("add", "sub", "mul", "div"):
        b = random_safe_ast(rng, depth - 1, n_coords, allow_theta)
        if op == "add":
            return BinOp("+", a, b)
        if op == "sub":
            return BinOp("-", a, b)
        if op == "mul":
            return BinOp("*", a, b)
        return BinOp("/", a, BinOp("+", Const(0.7), BinOp("*", b, b)))
    if op == "sqrt1":
        return Call("sqrt", BinOp("+", Const(1.0), BinOp("*", a, a)))
    if op == "exp":
        return Call("exp", BinOp("/", a, Const(4.0)))
    if op == "log1":
        return Call("log", BinOp("+", Const(1.5), BinOp("*", a, a)))
    if op == "pow2":
        return BinOp("^", a, Const(2.0))
    if op == "pow15":
        return BinOp("^", BinOp("+", Const(1.2), BinOp("*", a, a)), Const(1.5))
    return Neg(a)


class TestParsing:
    def test_p0_energy_expression(self):
        ast = parse_expr("sqrt(1 + p1*p1 + p2*p2 + p3*p3)")
        rng = np.random.default_rng(7)
        P = rng.normal(size=(20, 3))
        p0 = np.sqrt(1.0 + np.sum(P * P, axis=1))
        assert np.allclose(evaluate(ast, P), p0, rtol=1e-14)

    def test_trailing_operator_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("p1/")
        assert err.value.column == 4
        assert err.value.expected

    def test_theta_binding(self):
        ast = parse_expr("theta*sqrt(1+p1^2)")
        assert evaluate(ast, np.array([0.0]), theta=4.0) == pytest.approx(4.0)

    def test_theta_unbound(self):
        ast = parse_expr("theta*p1")
        with pytest.raises(ExprDomainError):
            evaluate(ast, np.array([1.0]))

    def test_unknown_identifier(self):
        for src in ("q1", "sin(p1)", "p0", "pe"):
            with pytest.raises(UnknownIdentifier):
                parse_expr(src)

    def test_coord_beyond_dimension(self):
        with pytest.raises(UnknownIdentifier):
            parse_expr("p1+p4", max_coord_index=3)
        assert isinstance(parse_expr("p4", max_coord_index=4), Coord)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("(p1+2")
        assert "')'" in err.value.expected

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("")

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("p1 p2")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("p1 + @")
        assert err.value.position == 5

    def test_precedence_and_associativity(self):
        p = np.array([[2.0, 3.0]])
        assert evaluate(parse_expr("p1+p2*2"), p)[0] == pytest.approx(8.0)
        assert evaluate(parse_expr("2^p2^p1"), p)[0] == pytest.approx(2.0 ** 9.0)
        assert evaluate(parse_expr("-p1^2"), p)[0] == pytest.approx(-4.0)
        assert evaluate(parse_expr("p1-p2-1"), p)[0] == pytest.approx(-2.0)
        assert evaluate(parse_expr("2*-p1"), p)[0] == pytest.approx(-4.0)

    def test_scientific_notation(self):
        assert evaluate(parse_expr("1e-3 + 2.5E2"), np.array([0.0])) == pytest.approx(
            250.001
        )


class TestDomainGuards:
    def test_division_by_zero(self):
        ast = parse_expr("1/p1")
        with pytest.raises(ExprDomainError):
            evaluate(ast, np.array([[1.0], [0.0]]))

    def test_log_of_nonpositive(self):
        ast = parse_expr("log(p1)")
        with pytest.raises(ExprDomainError):
            evaluate(ast, np.array([-1.0]))
        with pytest.raises(ExprDomainError):
            evaluate(ast, np.array([0.0]))

    def test_sqrt_of_negative(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse_expr("sqrt(p1)"), np.array([-4.0]))

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse_expr("p1^0.5"), np.array([-1.0]))

    def test_overflow_guarded(self):
        with pytest.raises(ExprDomainError):
            evaluate(parse_expr("exp(p1)"), np.array([1e4]))


class TestDifferentiation:
    def test_square_rule(self):
        ast = parse_expr("p1*p1")
        d = diff_expr(ast, 1)
        rng = np.random.default_rng(11)
        P = rng.normal(size=(20, 1))
        assert np.allclose(evaluate(d, P), 2.0 * P[:, 0], rtol=0, atol=1e-12)

    def test_p0_derivative_value(self):
        ast = parse_expr("sqrt(1+p1^2)")
        d = diff_expr(ast, 1)
        assert evaluate(d, np.array([1.0])) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_theta_is_constant(self):
        d = diff_expr(parse_expr("theta*p1 + theta"), 1)
        assert evaluate(d, np.array([5.0]), theta=3.25) == pytest.approx(3.25)

    def test_matches_finite_differences_on_random_asts(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            ast = random_safe_ast(rng, depth=int(rng.integers(1, 5)))
            P = rng.uniform(-1.0, 1.0, size=(10, 3))
            try:
                vals = evaluate(ast, P, theta=1.7)
            except ExprDomainError:
                continue
            if np.max(np.abs(vals)) > 1e6:
                continue
            for k in (1, 2, 3):
                sym = evaluate(diff_expr(ast, k), P, theta=1.7)
                ref = fd_derivative(ast, P, k, theta=1.7)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.allclose(sym, ref, rtol=1e-6, atol=1e-6 * scale), to_string(
                    ast
                )
            checked += 1

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            ast = random_safe_ast(rng, depth=int(rng.integers(1, 4)))
            d12 = diff_expr(diff_expr(ast, 1), 2)
            d21 = diff_expr(diff_expr(ast, 2), 1)
            P = rng.uniform(-1.0, 1.0, size=(20, 3))
            a = evaluate(d12, P, theta=1.7)
            b = evaluate(d21, P, theta=1.7)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9 * scale)

    def test_general_power_rule(self):
        ast = parse_expr("p1^p2")
        P = np.array([[2.0, 3.0]])
        d1 = evaluate(diff_expr(ast, 1), P)[0]
        d2 = evaluate(diff_expr(ast, 2), P)[0]
        assert d1 == pytest.approx(3.0 * 2.0 ** 2.0)
        assert d2 == pytest.approx(2.0 ** 3.0 * math.log(2.0))

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            diff_expr(parse_expr("p1"), 0)


class TestIntrospection:
    def test_uses_theta(self):
        assert uses_theta(parse_expr("exp(-theta*p1)"))
        assert not uses_theta(parse_expr("p1+p2"))


_ast_atoms = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False).map(
        lambda v: Const(float(np.round(v, 6)))
    ),
    st.integers(1, 3).map(Coord),
    st.just(Theta()),
)

_ast_strategy = st.recursive(
    _ast_atoms,
    lambda ch: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), ch, ch).map(lambda t: BinOp(*t)),
        ch.map(Neg),
        st.tuples(st.sampled_from(["sqrt", "exp", "log"]), ch).map(lambda t: Call(*t)),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_ast_strategy)
    def test_print_parse_fixed_point(self, tree):
        text = to_string(tree)
        first = parse_expr(text)
        printed = to_string(first)
        second = parse_expr(printed)
        assert second == first
        assert to_string(second) == printed

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="p123+-*/^() .aqrthe", max_size=30))
    def test_parser_total_on_garbage(self, text):
        try:
            parse_expr(text)
        except (ExprSyntaxError, UnknownIdentifier):
            pass

    def test_known_strings_stable(self):
        for src in (
            "sqrt(1+p1^2+p2^2+p3^2)",
            "theta*p1 - p2/(1+p3^2)",
            "exp(-(p1^2+p2^2)/2)",
            "p1^p2^p3",
            "-(p1+p2)*p3",
        ):
            once = to_string(parse_expr(src))
            twice = to_string(parse_expr(once))
            assert once == twice


def collectable_after(fn):
    """Objects the cyclic collector finds after one call of fn."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    """Recursive helpers must not leave reference cycles behind.

    A self-referencing closure keeps its memo alive until the cyclic
    collector happens to run, so each call must leave nothing for it.
    """

    SRC = "theta*sqrt(1 + p1^2 + p2^2) - log(p1^2 + 2)/exp(p2)"

    def test_parse_expr(self):
        assert collectable_after(lambda: parse_expr(self.SRC)) == 0

    def test_parse_expr_syntax_error(self):
        def parse_bad():
            try:
                parse_expr("1 + (p1 *")
            except ExprSyntaxError:
                pass

        assert collectable_after(parse_bad) == 0

    def test_diff_expr(self):
        ast = parse_expr(self.SRC)
        assert collectable_after(lambda: diff_expr(ast, 1)) == 0

    def test_to_string(self):
        ast = parse_expr(self.SRC)
        assert collectable_after(lambda: to_string(ast)) == 0


_POWER_RULE = {2.0: np.square, 0.5: np.sqrt, -1.0: np.reciprocal}


def _varies(node):
    """True when a coordinate occurs in the AST."""
    if isinstance(node, Coord):
        return True
    if isinstance(node, BinOp):
        return _varies(node.left) or _varies(node.right)
    return isinstance(node, (Neg, Call)) and _varies(node.arg)


def walk_reference(ast, P, theta=None):
    """One AST at the rows of P (n, M), walked node by node.

    A power takes the Tape's rule: a base that varies with the point,
    raised to the constant 2, 0.5 or -1, is squared, square-rooted or
    inverted, and every other power calls np.power on n values each,
    so that no batch size takes the path numpy keeps for an exponent
    that broadcasts.
    """
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Const):
            out = np.full(1, node.value)
        elif isinstance(node, Coord):
            out = P[:, node.index - 1]
        elif isinstance(node, Theta):
            out = np.full(1, float(theta))
        elif isinstance(node, Neg):
            out = -ev(node.arg)
        else:
            with np.errstate(all="ignore"):
                rule = None
                if (isinstance(node, BinOp) and node.op == "^"
                        and isinstance(node.right, Const) and _varies(node.left)):
                    rule = _POWER_RULE.get(node.right.value)
                if rule is not None:
                    out = rule(ev(node.left))
                elif isinstance(node, BinOp) and node.op == "^":
                    a, b = ev(node.left), ev(node.right)
                    n = max(a.size, b.size)
                    out = np.power(np.resize(a, n), np.resize(b, n))
                elif isinstance(node, BinOp):
                    a, b = ev(node.left), ev(node.right)
                    out = {"+": np.add, "-": np.subtract, "*": np.multiply,
                           "/": np.divide}[node.op](a, b)
                else:
                    out = {"sqrt": np.sqrt, "exp": np.exp, "log": np.log}[node.fn](
                        ev(node.arg)
                    )
        memo[id(node)] = out
        return out

    return np.array(np.broadcast_to(ev(ast), (P.shape[0],)), dtype=float)


def _metric_2jet(metric_field):
    """The entries of g, dg and d2g as ASTs (d2g with both axis orders)."""
    out = list(metric_field.entries.values())
    grads = [diff_expr(ast, k + 1) for ast in out for k in range(metric_field.dim)]
    for ast in list(grads):
        for l in range(1, metric_field.dim + 1):
            grads.append(diff_expr(ast, l))
    return out + grads


class TestTape:
    REL = builtin_relativistic(4.0)

    def _assert_matches_walk(self, roots, P, theta):
        got = evaluate(Tape(roots), P, theta=theta)
        assert got.shape == (len(roots), P.shape[0])
        for row, ast in zip(got, roots):
            assert np.array_equal(row, evaluate(ast, P, theta=theta))
            assert np.array_equal(row, walk_reference(ast, P, theta))

    def test_random_pools_match_one_root_runs(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            depths = rng.integers(1, 5, size=8)
            pool = [random_safe_ast(rng, depth=int(d)) for d in depths]
            pool += [diff_expr(ast, 2) for ast in pool[:4]] + [pool[0]]
            P = rng.uniform(-1.0, 1.0, size=(7, 3))
            self._assert_matches_walk(pool, P, 1.7)

    def test_field_jets_match_one_root_runs(self):
        P = np.random.default_rng(3).uniform(-2.0, 2.0, size=(9, 3))
        self._assert_matches_walk(_metric_2jet(self.REL.metric_field), P, 4.0)
        logu = log_weight_field(self.REL).ast
        jet = [logu] + [diff_expr(logu, k) for k in (1, 2, 3)]
        jet += [diff_expr(d, l) for d in jet[1:] for l in (1, 2, 3)]
        self._assert_matches_walk(jet, P, 4.0)

    @pytest.mark.parametrize("n", [1, 7, 133, 1024])
    def test_level_groups_match_the_walk(self, n):
        # one ufunc call per group gives, at any batch size, one point
        # included, the bits of one call per op
        rng = np.random.default_rng(n)
        pool = [random_safe_ast(rng, depth=int(d)) for d in rng.integers(1, 5, size=12)]
        pool += [diff_expr(ast, 2) for ast in pool[:6]]
        P = rng.uniform(-1.0, 1.0, size=(n, 3))
        self._assert_matches_walk(pool, P, 1.7)
        self._assert_matches_walk(_metric_2jet(self.REL.metric_field), 1.5 * P, 4.0)

    def test_one_level_of_powers_with_mixed_exponents(self):
        # A varying base raised to the constant 2, 0.5 or -1 is squared,
        # square-rooted or inverted, at one point as in a batch; where
        # numpy broadcasts the exponent of a lone power it does the
        # same, and pow's last bits can differ.  The other constant
        # powers of a varying base are one group, its power of theta
        # reads theta repeated over the points, and the powers of theta
        # alone are one group of columns: each calls pow at any n.
        x, exps = parse_expr("p1 + p2"), (2.0, 3.0, 0.5, 1.5, -1.0)
        roots = [BinOp("^", x, Const(e)) for e in exps]
        roots += [BinOp("^", Theta(), Const(e)) for e in exps]
        roots += [BinOp("^", x, Theta()), BinOp("^", Const(2.0), x)]
        tape = Tape(roots)
        kinds = Counter(entry[0] for entry in tape.program)
        assert kinds == {"add": 1, "power": 4, "square": 1, "sqrt": 1,
                         "reciprocal": 1}
        rng = np.random.default_rng(5)
        for theta in (2.0, 0.5, 1.7):
            P = rng.uniform(0.05, 2.0, size=(200, 2))
            self._assert_matches_walk(roots, P, theta)
            batch = evaluate(tape, P, theta)
            for i, p in enumerate(P[:40]):
                self._assert_matches_walk(roots, p[None, :], theta)
                assert np.array_equal(evaluate(tape, p, theta), batch[:, i])

    def test_single_point_rows(self):
        roots = [parse_expr("p1*p2"), parse_expr("sqrt(1+p2^2)")]
        got = evaluate(Tape(roots), np.array([2.0, 3.0]))
        assert got.shape == (2,)
        assert got[0] == 6.0 and got[1] == math.sqrt(10.0)

    def test_structural_copies_share_ops(self):
        a, b = parse_expr("sqrt(1+p1^2)"), parse_expr("sqrt(1+p1^2)")
        assert a is not b
        one = Tape([a]).op_count
        assert Tape([a, b]).op_count == one
        assert Tape([BinOp("+", a, b)]).op_count == one + 1

    def test_metric_jet_is_shared_across_entries(self):
        jet = _metric_2jet(self.REL.metric_field)
        separate = sum(Tape([ast]).op_count for ast in jet)
        assert Tape(jet).op_count < separate / 2

    def test_first_failing_entry_names_the_error(self):
        bad = np.array([[-1.0]])
        sqrt_, log_ = parse_expr("sqrt(p1)"), parse_expr("log(p1)")
        with pytest.raises(ExprDomainError, match="^sqrt"):
            ExprVectorField([sqrt_, log_], 1).value(bad)
        with pytest.raises(ExprDomainError, match="^log"):
            ExprVectorField([log_, sqrt_], 1).value(bad)
        # Within one entry the first failure in post-order wins, whatever
        # level or group runs first.
        with pytest.raises(ExprDomainError, match="^log"):
            evaluate(Tape([BinOp("+", log_, sqrt_), sqrt_]), bad)
        with pytest.raises(ExprDomainError, match="^sqrt"):
            evaluate(Tape([BinOp("+", sqrt_, log_)]), bad)
        ratio = BinOp("/", Const(1.0), BinOp("-", Coord(1), Coord(1)))
        with pytest.raises(ExprDomainError, match="^division"):
            evaluate(Tape([ratio, log_]), bad)
        with pytest.raises(ExprDomainError, match="^log"):
            evaluate(Tape([log_, ratio]), bad)

    def test_signed_zero_constants_stay_distinct(self):
        zero = Const(0.0)
        got = evaluate(Tape([zero, neg(zero)]), np.zeros((2, 1)))
        assert list(np.signbit(got[:, 0])) == [False, True]
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_coordinate_beyond_columns(self):
        with pytest.raises(UnknownIdentifier):
            evaluate(Tape([Coord(1), Coord(4)]), np.zeros((2, 3)))
        with pytest.raises(UnknownIdentifier):
            evaluate(Coord(4), np.zeros(3))

    def test_theta_unbound(self):
        tape = Tape([parse_expr("p1"), parse_expr("theta*p1")])
        with pytest.raises(ExprDomainError, match="theta"):
            evaluate(tape, np.ones((2, 1)))
        got = evaluate(tape, np.ones((2, 1)), theta=2.0)
        assert np.array_equal(got, [[1, 1], [2, 2]])

    def test_derivative_tape_is_cached(self, monkeypatch):
        field = ExprScalarField(parse_expr("exp(p1*p2)"), 2)
        P = np.array([[0.5, -1.0], [1.0, 2.0]])
        first = field.derivative(P, (0, 1))
        calls = []
        for name in ("derivative", "tape"):
            monkeypatch.setattr(expressions._Dag, name, lambda *a: calls.append(a))
        assert np.array_equal(field.derivative(P, [0, 1]), first)
        assert calls == []
        want = (1.0 + P[:, 0] * P[:, 1]) * np.exp(P[:, 0] * P[:, 1])
        np.testing.assert_allclose(first, want, rtol=1e-14)


class TestJetLayout:
    """Slot [n, l, ..., k, *index] of an order-k field jet is the entry
    at index differentiated along (l, ..., k) in increasing axis order,
    evaluated on its own; slots that permute the axes or mirror a metric
    index hold the same bits."""

    REL = builtin_relativistic(4.0)
    P = np.random.default_rng(8).uniform(-2.0, 2.0, size=(6, 3))

    def _assert_layout(self, field, entry, methods, symmetric_index=False):
        for order, name in enumerate(methods):
            jet = getattr(field, name)(self.P)
            assert jet.shape[1:order + 1] == (3,) * order
            for slot in np.ndindex(jet.shape[1:]):
                ast = entry(slot[order:])
                for k in sorted(slot[:order]):
                    ast = diff_expr(ast, k + 1)
                want = evaluate(ast, self.P, theta=4.0)
                assert np.array_equal(jet[(slice(None),) + slot], want), (name, slot)
            rest = tuple(range(order + 1, jet.ndim))
            mirrors = [rest, rest[::-1]] if symmetric_index else [rest]
            for perm in itertools.permutations(range(1, order + 1)):
                for tail in mirrors:
                    assert np.array_equal(jet, jet.transpose((0,) + perm + tail))

    def test_metric(self):
        g = self.REL.metric_field
        self._assert_layout(g, lambda ij: g.entries[tuple(sorted(ij))],
                            ("value", "grad", "hess"), symmetric_index=True)

    @pytest.mark.parametrize("name", ["velocity", "energy"])
    def test_scalars(self, name):
        f = self.REL.v_fields[0] if name == "velocity" else self.REL.energy_field
        self._assert_layout(f, lambda idx: f.ast, ("value", "grad", "hess", "third"))
        np.testing.assert_array_equal(
            f.derivative(self.P, (2, 0)), f.hess(self.P)[:, 0, 2]
        )

    def test_vector(self):
        asts = [f.ast for f in self.REL.v_fields]
        Z = ExprVectorField(asts, 3, theta=4.0)
        self._assert_layout(Z, lambda idx: asts[idx[0]], ("value", "jacobian"))


FILE_MODEL = """\
[model]
theta = 2.0

[metric]
g11 = exp(0.1*log(1 + p1^2 + p2^2))
g12 = p1*p2/(3 + p1^2)
g22 = sqrt(2 + p2^2)

[velocity]
v1 = p1/sqrt(1 + p1^2)
v2 = p2 + 0.1*p1^2

[energy]
E = theta*(1 + p1^2)^(0.5 + 0.1*p2^2) + theta^(p2/4) - log(2 + p2^2)/2
"""


def _file_model(tmp_path):
    path = tmp_path / "model.ini"
    path.write_text(FILE_MODEL)
    return load_model_file(path)


JET_MODELS = {
    "classical1": lambda tmp: builtin_classical(1),
    "classical3": lambda tmp: builtin_classical(3),
    "relativistic1": lambda tmp: builtin_relativistic(4.0, dim=1),
    "relativistic3": lambda tmp: builtin_relativistic(4.0),
    "conformal2d": lambda tmp: conformal_model_2d(),
    "file2d": _file_model,
}


def _jet_fields(model):
    """(label, entries, shape, field, orders) for each expression field."""
    mf = model.metric_field
    out = [("g", mf.entries, (model.dim, model.dim), mf, (0, 1, 2))]
    scalars = [(f"v{i + 1}", f) for i, f in enumerate(model.v_fields)]
    scalars += [("E", model.energy_field), ("log u", log_weight_field(model))]
    out += [(label, {(): f.ast}, (), f, (0, 1, 2, 3)) for label, f in scalars]
    return out


class TestDagMatchesAstRules:
    """The derivative rules on DAG slots against the same rules applied
    to AST nodes (`tests_support.diff_expr_reference`), and the programs
    of every jet order against one Tape of those ASTs per order."""

    @pytest.mark.parametrize("name", sorted(JET_MODELS))
    def test_every_jet_order_bit_identical(self, name, tmp_path):
        model = JET_MODELS[name](tmp_path)
        P = np.random.default_rng(17).uniform(-1.5, 1.5, size=(7, model.dim))
        for label, entries, shape, field, orders in _jet_fields(model):
            for order in orders:
                request = ((0, order),)
                (got,) = field._jets(request, P)
                want, tape = jet_reference(entries, shape, model.dim, order, P,
                                           field.theta)
                assert np.array_equal(got, want), (label, order)
                # the same program, group for group, in the same rows
                assert field._jets._compiled[request][0].program == tape.program

    @pytest.mark.parametrize("seed, depths", [(42, (1, 5)), (202, (1, 4))])
    def test_derivative_trees_on_random_asts(self, seed, depths):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            ast = random_safe_ast(rng, depth=int(rng.integers(*depths)))
            for k in (1, 2, 3):
                d, ref = diff_expr(ast, k), diff_expr_reference(ast, k)
                assert to_string(d) == to_string(ref), to_string(ast)
                assert to_string(diff_expr(d, 2)) == to_string(
                    diff_expr_reference(ref, 2))

    @settings(max_examples=200, deadline=None)
    @given(_ast_strategy)
    def test_derivative_trees_with_units(self, tree):
        # raw trees hold the constants 0 and 1 that the folding rules remove
        for k in (1, 2, 3):
            assert to_string(diff_expr(tree, k)) == to_string(
                diff_expr_reference(tree, k))


class TestPointJetProgram:
    """A point jet, one request to the model's jet builder, gives bit for
    bit the arrays that the per-field methods and `jet_from_arrays` give."""

    @staticmethod
    def _assert_per_field(model, P):
        pj = asm._PointJet(model, P)
        mf = model.metric_field
        want = vars(geometry.jet_from_arrays(mf.value(P), mf.grad(P), mf.hess(P)))
        for name, got in vars(pj.jet).items():
            assert np.array_equal(got, want[name]), name
        for name, method in (("dv", "grad"), ("hv", "hess"), ("tv", "third")):
            stacked = np.stack([getattr(f, method)(P) for f in model.v_fields], axis=1)
            assert np.array_equal(getattr(pj, name), stacked), name
        assert np.array_equal(pj.grad_E, model.energy_field.grad(P))
        assert np.array_equal(pj.hess_E, model.energy_field.hess(P))
        return model._cache["jets"]

    @pytest.mark.parametrize("name", sorted(JET_MODELS))
    def test_expression_models(self, name, tmp_path):
        model = JET_MODELS[name](tmp_path)
        P = np.random.default_rng(23).uniform(-1.5, 1.5, size=(9, model.dim))
        jets = self._assert_per_field(model, P)
        # every field is a member of the builder, and the point jet is
        # the one request it has compiled
        assert jets._others == {}
        assert len(jets._compiled) == 1

    def test_fd_metric(self):
        rel = builtin_relativistic(4.0)
        model = replace(rel, metric_field=FDField(rel.metric_field.value, 3))
        P = np.random.default_rng(29).uniform(-1.5, 1.5, size=(9, 3))
        jets = self._assert_per_field(model, P)
        assert jets._others == {0: model.metric_field}

    def test_field_with_another_theta(self):
        # one builder binds one theta: a field bound to another one
        # answers through its own methods
        rel = builtin_relativistic(4.0)
        energy = ExprScalarField(rel.energy_field.ast, 3, theta=2.0)
        model = replace(rel, energy_field=energy)
        P = np.random.default_rng(31).uniform(-1.5, 1.5, size=(9, 3))
        jets = self._assert_per_field(model, P)
        assert jets._others == {4: energy}
        np.testing.assert_allclose(
            asm._PointJet(model, P).grad_E,
            0.5 * asm._PointJet(rel, P).grad_E, rtol=1e-15,
        )

    @pytest.mark.parametrize("name", ["relativistic1", "relativistic3", "conformal2d"])
    def test_every_request_matches_the_field_methods(self, name, tmp_path):
        model = JET_MODELS[name](tmp_path)
        P = np.random.default_rng(37).uniform(-1.5, 1.5, size=(9, model.dim))
        mf, E = model.metric_field, model.energy_field
        for second in (False, True):
            want = geometry.jet_from_arrays(
                mf.value(P), mf.grad(P), mf.hess(P) if second else None)
            got = geometry.batch_jet(model, P, second=second)
            for key, value in vars(want).items():
                if value is None:
                    assert vars(got)[key] is None, key
                else:
                    assert np.array_equal(vars(got)[key], value), key
        logu, jet = geometry.log_weight_values(model, P)
        assert np.array_equal(logu, -E.value(P) - np.log(jet.sqrt_det))
        (v,) = model._jets(((1, 0),), P)
        assert np.array_equal(v, model.v_fields[0].value(P))
        want = geometry.bakry_emery_from_jet(
            geometry.jet_from_arrays(mf.value(P), mf.grad(P), mf.hess(P)),
            E.grad(P), E.hess(P))
        assert np.array_equal(geometry.bakry_emery_ricci(model, P).entries, want)
        # one builder, one program per request
        jets = model._cache["jets"]
        assert len(jets._compiled) == 5


def count_runs(monkeypatch):
    """The tapes run from now on, one entry per run."""
    runs, run = [], Tape.run

    def counted(tape, P, theta):
        runs.append(tape)
        return run(tape, P, theta)

    monkeypatch.setattr(Tape, "run", counted)
    return runs


class TestJetCost:
    """Work counted, not timed, while the jets a point jet reads are built."""

    def test_relativistic_point_jet(self, monkeypatch):
        empty_program_table(monkeypatch)
        calls, rules = [], []
        for owner in (expressions, fields):
            monkeypatch.setattr(owner, "diff_expr", lambda *a: calls.append(a))
        rule = expressions._Dag._rule

        def counted(dag, slot, k, *d):
            rules.append((dag, slot, k))
            return rule(dag, slot, k, *d)

        monkeypatch.setattr(expressions._Dag, "_rule", counted)
        model = builtin_relativistic(4.0)
        P = np.array([[0.3, -0.2, 0.5]])
        asm._PointJet(model, P)

        # the model's one builder: one DAG and one program of 1,104 ops
        # for g at orders 0-2, each v at orders 1-3 and E at orders 1-2,
        # in 86 ufunc calls over 317 varying rows; the 14 per-field
        # programs of those jets would run 1,970 ops
        jets = model._cache["jets"]
        assert jets._others == {}
        ((request, (tape, _)),) = jets._compiled.items()
        assert len(request) == 14
        assert tape.op_count == 1104
        assert (len(tape.code), tape.rows) == (86, 317)
        assert rules and {dag for dag, _, _ in rules} == {jets._dag}
        assert len(set(rules)) == len(rules)

        # each field's own methods still compile one program per order
        g, vs, energy = model.metric_field, model.v_fields, model.energy_field
        logu = log_weight_field(model)
        for field, methods in ((g, ("value", "grad", "hess")),
                               *((v, ("value", "grad", "hess", "third")) for v in vs),
                               (energy, ("grad", "hess")),
                               (logu, ("value", "grad", "hess"))):
            for name in methods:
                getattr(field, name)(P)

        assert calls == []
        assert len(set(rules)) == len(rules)

        def ops(field):
            return {order: tape.op_count for ((_, order),), (tape, *_)
                    in field._jets._compiled.items()}

        assert ops(g) == {0: 25, 1: 102, 2: 392}
        assert ops(vs[0]) == {0: 8, 1: 24, 2: 91, 3: 344}
        assert ops(energy) == {1: 17, 2: 43}
        assert ops(logu) == {0: 44, 1: 239, 2: 980}
        by_index = (g, *vs, energy)
        assert sum(ops(by_index[i])[order] for i, order in request) == 1970

    def test_batch_jet_runs_one_program(self, monkeypatch):
        runs = count_runs(monkeypatch)
        for model in (builtin_relativistic(4.0), builtin_classical(3)):
            for second in (False, True):
                runs.clear()
                geometry.batch_jet(model, np.zeros((2, 3)), second=second)
                assert len(runs) == 1

    def test_pointwise_geometry_program_runs(self, monkeypatch):
        # ricci reads g at orders 0-2 in one run, the covariant Hessian
        # of log u (a member of the model's builder) g at orders 0-1 and
        # log u at orders 1-2 in one run, and Bakry-Emery g and E at
        # orders 0-2 in one run
        model = builtin_relativistic(4.0)
        logu = log_weight_field(model)
        p = np.array([0.5, -0.25, 1.0])
        runs, counts = count_runs(monkeypatch), []
        for op in (geometry.ricci, geometry.bakry_emery_ricci,
                   lambda m, q: geometry.covariant_hessian(m, logu, q)):
            runs.clear()
            op(model, p)
            counts.append(len(runs))
        assert counts == [1, 1, 1]
        # log u's program holds every op of g's, so the covariant Hessian
        # costs log u's 2-jet and no more
        jets = model._cache["jets"]
        e = model.dim + 2
        tape, _ = jets._compiled[((0, 0), (0, 1), (e, 1), (e, 2))]
        assert tape.op_count == 995
        assert "_jets" not in vars(logu)

    def test_node_geometry_runs_one_program(self, monkeypatch):
        # the solver's node geometry reads g, v and v' in one request;
        # the fields that only the diagnostics read come from one point
        # jet, on the first read of one of them
        model = builtin_relativistic(10.0, dim=1)
        grid = solver.build_grid(model, 8, 16, 6.0)
        runs = count_runs(monkeypatch)
        geo = solver._node_geometry(model, grid)
        assert len(runs) == 1
        assert "_pj" not in vars(geo)
        for name in ("Gamma", "w_cov", "ric_t", "H_v", "divH"):
            assert getattr(geo, name).shape == (grid.Np,)
        assert len(runs) == 2

    def test_pointwise_geometry_builds_one_dag(self, monkeypatch):
        # one geom-pointwise op on a fresh model: g, E and log u are all
        # differentiated on the model's DAG
        made = count_builder_dags(monkeypatch)
        model = builtin_relativistic(4.0)
        p = np.array([0.5, -0.25, 1.0])
        geometry.ricci(model, p)
        geometry.covariant_hessian(model, log_weight_field(model), p)
        geometry.bakry_emery_ricci(model, p)
        assert made == [model._cache["jets"]._dag]

    def test_fields_intern_nothing_until_read(self, monkeypatch):
        # A model's fields build their own jets on first use; the scans
        # read them through the model's jet builder, which interns every
        # entry of g, v and E once, one call per member as it joins.
        empty_program_table(monkeypatch)
        roots = []
        intern = expressions._Dag.intern

        def counted(dag, asts):
            roots.append(len(asts))
            return intern(dag, asts)

        monkeypatch.setattr(expressions._Dag, "intern", counted)
        model = builtin_relativistic(4.0)
        assert roots == []
        asm._PointJet(model, np.array([[0.3, -0.2, 0.5]]))
        # g's six entries, v^1, v^2, v^3 and E: 10 roots
        assert roots == [6, 1, 1, 1, 1]
        model.metric_field.value(np.zeros((1, 3)))
        assert roots == [6, 1, 1, 1, 1, 6]
        # log u is interned as it joins the model's builder, and not
        # again on its first request there
        logu = log_weight_field(model)
        assert roots == [6, 1, 1, 1, 1, 6, 1]
        geometry.covariant_hessian(model, logu, np.zeros(3))
        assert roots == [6, 1, 1, 1, 1, 6, 1]


def count_compiles(monkeypatch):
    """The (builder, request) of each program jet builders compile from
    now on."""
    calls, compile = [], fields._ExprJets._compile

    def counted(jets, request):
        calls.append((jets, request))
        return compile(jets, request)

    monkeypatch.setattr(fields._ExprJets, "_compile", counted)
    return calls


class TestProgramTable:
    """Compiled jet programs are shared across builders, keyed on what
    their fields compute (`fields._programs`)."""

    @staticmethod
    def _point_jet(model, P):
        """The program of the model's point jet, and its jets at P."""
        asm._PointJet(model, P)
        jets = model._cache["jets"]
        ((request, program),) = jets._compiled.items()
        return program, jets(request, P)

    @pytest.mark.parametrize("dim", [3, 1])
    def test_one_program_for_every_theta(self, monkeypatch, dim):
        # theta is a run-time column: the models at three thetas share one
        # program, and each reads bit for bit what a cold compile at its
        # own theta reads
        thetas = (4.0, 0.1, 30.0)
        P = np.random.default_rng(41).uniform(-1.5, 1.5, size=(9, dim))
        empty_program_table(monkeypatch)
        compiles = count_compiles(monkeypatch)
        programs, warm = zip(*(self._point_jet(builtin_relativistic(t, dim=dim), P)
                               for t in thetas))
        assert len(compiles) == 1
        assert all(program is programs[0] for program in programs)
        assert not all(map(np.array_equal, warm[0], warm[1]))
        for theta, jets in zip(thetas, warm):
            empty_program_table(monkeypatch)
            program, cold = self._point_jet(builtin_relativistic(theta, dim=dim), P)
            assert program is not programs[0]
            assert len(cold) == len(jets)
            for got, want in zip(jets, cold):
                assert np.array_equal(got, want), theta
        assert len(compiles) == 4

    def test_different_fields_never_share(self, monkeypatch):
        empty_program_table(monkeypatch)
        P = np.array([[-0.0, 0.5, 1.0]])

        def run(fs, request, dim=3):
            jets = fields._ExprJets(fs, dim)
            out = jets(request, P[:, :dim])
            return jets._compiled[request], out

        # 0.0 and -0.0 are equal as dataclasses, not bit for bit:
        # -0 + 0 is 0 and -0 + -0 is -0
        plus, minus = (ExprScalarField(BinOp("+", Coord(1), Const(z)), 3)
                       for z in (0.0, -0.0))
        assert plus.ast == minus.ast
        (a, (x,)), (b, (y,)) = run([plus], ((0, 0),)), run([minus], ((0, 0),))
        assert a is not b
        assert (np.signbit(x[0]), np.signbit(y[0])) == (False, True)

        p1, p2 = (ExprScalarField(parse_expr(s), 3) for s in ("p1", "p2"))
        (a, (x,)), (b, (y,)) = run([p1], ((0, 1),)), run([p2], ((0, 1),))
        assert a is not b
        assert x.tolist() == [[1.0, 0.0, 0.0]] and y.tolist() == [[0.0, 1.0, 0.0]]

        ast = parse_expr("p1^2")
        (a, (x,)) = run([ExprScalarField(ast, 1)], ((0, 1),), dim=1)
        (b, (y,)) = run([ExprScalarField(ast, 3)], ((0, 1),))
        assert a is not b
        assert (x.shape, y.shape) == ((1, 1), (1, 3))

        # a pair of a field that is not a member holds no program part,
        # and each builder reads its own such field
        f = ExprScalarField(parse_expr("p2*p3"), 3)
        request = ((0, 1), (1, 1))
        exact = ExprScalarField(parse_expr("p2*p3"), 3)
        fd = FDField(lambda Q: Q[:, 1] * Q[:, 2], 3)
        fd2 = FDField(lambda Q: 2.0 * Q[:, 1] * Q[:, 2], 3)
        (a, (_, x)), (b, (_, y)) = run([f, fd], request), run([f, exact], request)
        assert a is not b
        assert a[1][1] is None and b[1][1] is not None
        np.testing.assert_allclose(x, y, rtol=1e-8)
        c, (_, z) = run([f, fd2], request)
        assert c is a
        np.testing.assert_allclose(z, 2.0 * y, rtol=1e-8)

    def test_table_keeps_no_model_alive(self, monkeypatch):
        empty_program_table(monkeypatch)
        model = builtin_relativistic(4.0)
        asm._PointJet(model, np.zeros((1, 3)))
        refs = [weakref.ref(model), weakref.ref(model._cache["jets"])]
        del model
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert len(fields._programs) == 1

    def test_table_never_grows_past_its_bound(self, monkeypatch):
        empty_program_table(monkeypatch)
        compiles = count_compiles(monkeypatch)
        bound = fields._PROGRAMS_MAX
        P = np.ones((1, 1))

        def read(i):
            assert ExprScalarField(parse_expr(f"p1 + {i}"), 1).value(P)[0] == 1 + i

        for i in range(bound):
            read(i)
        read(0)  # now the most recently used
        for i in range(bound, bound + 3):
            read(i)
            assert len(fields._programs) == bound
        assert len(compiles) == bound + 3
        read(0)
        read(bound + 2)
        assert len(compiles) == bound + 3
        read(1)  # the least recently used went first
        assert len(compiles) == bound + 4
        assert len(fields._programs) == bound

    def test_shared_programs_are_read_only(self, monkeypatch):
        empty_program_table(monkeypatch)
        P = np.zeros((1, 3))
        program, want = self._point_jet(builtin_relativistic(4.0), P)
        # the column template, each block's source and the rows the tape
        # writes by index (the rows it reads by `take` stay writeable)
        tape, blocks = program
        arrays = [tape._cols, *(source for source, _ in blocks)]
        arrays += [entry[8] for entry in tape.code if isinstance(entry[8], np.ndarray)]
        assert len(arrays) > 1 + len(blocks)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]
        _, got = self._point_jet(builtin_relativistic(4.0), P)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("op", [geometry.covariant_hessian, geometry.gradient_p,
                                    geometry.laplace_beltrami])
    def test_string_field_compiles_once(self, monkeypatch, op):
        # a string is parsed into a fresh field on every call, whose
        # program comes from the table after the first
        empty_program_table(monkeypatch)
        model = builtin_relativistic(4.0)
        p = np.array([0.5, -0.25, 1.0])
        compiles = count_compiles(monkeypatch)
        first = op(model, "p1^2 + exp(0.3*p2)", p)
        second = op(model, "p1^2 + exp(0.3*p2)", p)
        own = [request for jets, request in compiles if jets is not model._builder()]
        assert len(own) == 1
        assert len(compiles) == 2
        assert np.array_equal(getattr(first, "entries", first),
                              getattr(second, "entries", second))
