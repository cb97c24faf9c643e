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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypocert import assumptions as asm
from hypocert import expressions, fields
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
    max_coord,
    neg,
    parse_expr,
    to_string,
    uses_theta,
)
from hypocert.fields import ExprScalarField, ExprVectorField
from hypocert.models import (
    builtin_classical,
    builtin_relativistic,
    load_model_file,
    log_weight_field,
)

from tests_support import conformal_model_2d, diff_expr_reference, jet_reference


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

    def test_max_coord(self):
        assert max_coord(parse_expr("p1*p3+sqrt(p2)")) == 3
        assert max_coord(parse_expr("1+2")) == 0


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


def walk_reference(ast, P, theta=None):
    """One AST at the rows of P (n, M), walked node by node."""
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
                if isinstance(node, BinOp):
                    a, b = ev(node.left), ev(node.right)
                    out = {"+": np.add, "-": np.subtract, "*": np.multiply,
                           "/": np.divide, "^": np.power}[node.op](a, b)
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

    def test_single_point_rows(self):
        roots = [parse_expr("p1*p2"), parse_expr("sqrt(1+p2^2)")]
        got = evaluate(Tape(roots), np.array([2.0, 3.0]))
        assert got.shape == (2,)
        assert got[0] == 6.0 and got[1] == math.sqrt(10.0)

    def test_structural_copies_share_ops(self):
        a, b = parse_expr("sqrt(1+p1^2)"), parse_expr("sqrt(1+p1^2)")
        assert a is not b
        one = len(Tape([a]).code)
        assert len(Tape([a, b]).code) == one
        assert len(Tape([BinOp("+", a, b)]).code) == one + 1

    def test_metric_jet_is_shared_across_entries(self):
        jet = _metric_2jet(self.REL.metric_field)
        separate = sum(len(Tape([ast]).code) for ast in jet)
        assert len(Tape(jet).code) < separate / 2

    def test_first_failing_entry_names_the_error(self):
        bad = np.array([[-1.0]])
        sqrt_, log_ = parse_expr("sqrt(p1)"), parse_expr("log(p1)")
        with pytest.raises(ExprDomainError, match="^sqrt"):
            ExprVectorField([sqrt_, log_], 1).value(bad)
        with pytest.raises(ExprDomainError, match="^log"):
            ExprVectorField([log_, sqrt_], 1).value(bad)
        # Within one entry the first failure in post-order wins.
        with pytest.raises(ExprDomainError, match="^log"):
            evaluate(Tape([BinOp("+", log_, sqrt_), sqrt_]), bad)

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
                got = field._jets(order, P, field.theta)
                want, tape = jet_reference(entries, shape, model.dim, order, P,
                                           field.theta)
                assert np.array_equal(got, want), (label, order)
                # the same program, op for op, with the same slots freed
                assert field._jets._compiled[order][0].code == tape.code

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


class TestJetCost:
    """Work counted, not timed, while the jets a point jet reads are built."""

    def test_relativistic_point_jet(self, monkeypatch):
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
        model.v_fields[0].value(P)
        logu = log_weight_field(model)
        for order in range(3):
            logu._jets(order, P, model.theta)

        assert calls == []
        assert rules and len(set(rules)) == len(rules)

        def ops(field):
            return {order: len(tape.code)
                    for order, (tape, _, _) in field._jets._compiled.items()}

        assert ops(model.metric_field) == {0: 25, 1: 102, 2: 392}
        assert ops(model.v_fields[0]) == {0: 8, 1: 24, 2: 91, 3: 344}
        assert ops(model.energy_field) == {1: 17, 2: 43}
        assert ops(logu) == {0: 44, 1: 239, 2: 980}
