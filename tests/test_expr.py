"""Expression trees: parsing, folding, printing, and round-trips."""

from __future__ import annotations

import cmath
import gc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qfc.errors import ParseError, SingularPointError
from qfc.expr import (
    Add,
    Conj,
    ConjVar,
    Div,
    Mul,
    Neg,
    Pow,
    QExpr,
    RealConst,
    Sub,
    UnitI,
    UnitJ,
    Var,
    const,
    parse,
    parse_definitions,
    post_order,
    unparse,
)
from qfc.jets import Point4
from qfc import expr as expr_module
from qfc.lowering import lower

from expr_oracle import oracle_lower, oracle_parse, oracle_repr, oracle_unparse
from qexpr_oracle import eval_qexpr
from random_trees import random_scalar_tree, random_surface_tree

VAR_NAMES = st.sampled_from(["z1", "z2"])
# Constants are rounded so their repr survives the tokenizer unchanged.
CONSTS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(
    lambda v: RealConst(round(v, 3))
)
LEAVES = st.one_of(
    st.builds(Var, VAR_NAMES),
    st.builds(ConjVar, VAR_NAMES),
    CONSTS,
    st.just(UnitI()),
    st.just(UnitJ()),
)


def _branches(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Neg, children),
        st.builds(Conj, children),
        st.builds(Pow, children, st.integers(min_value=1, max_value=4)),
    )


EXPRESSIONS = st.recursive(LEAVES, _branches, max_leaves=25)


def test_parse_builds_raw_left_associated_chains() -> None:
    got = parse("z1 + conj(z1) + z2 + conj(z2) + 1")
    want = Add(
        Add(Add(Add(Var("z1"), ConjVar("z1")), Var("z2")), ConjVar("z2")),
        RealConst(1.0),
    )
    assert got == want


def test_parse_surface_expression() -> None:
    got = parse("conj(z1) + conj(z2)*j")
    assert got == Add(ConjVar("z1"), Mul(ConjVar("z2"), UnitJ()))
    assert got.has_j
    assert not parse("z1*z2 + i").has_j


def test_parse_precedence_and_exponent() -> None:
    assert parse("z1 + z2*z1^2") == Add(
        Var("z1"), Mul(Var("z2"), Pow(Var("z1"), 2))
    )
    assert parse("(z1 + z2)*z1") == Mul(Add(Var("z1"), Var("z2")), Var("z1"))
    assert parse("z1 - z2 - 1") == Sub(Sub(Var("z1"), Var("z2")), RealConst(1.0))


def test_parse_number_forms() -> None:
    assert parse("1.5e-3") == RealConst(0.0015)
    assert parse(".5") == RealConst(0.5)
    assert parse("-2.5") == RealConst(-2.5)
    assert parse("- 2.5") == RealConst(-2.5)


def test_parse_leading_minus_folds_constants_only() -> None:
    assert parse("-z1") == Neg(Var("z1"))
    assert parse("-(z1)") == Neg(Var("z1"))
    # A negated constant folds even through parentheses.
    assert parse("-(2.0)") == RealConst(-2.0)


def test_parse_error_positions() -> None:
    with pytest.raises(ParseError, match=r"unexpected token '\*' \(at position 4\)"):
        parse("z1 +* 2")
    try:
        parse("z1 +* 2")
    except ParseError as exc:
        assert exc.position == 4
    with pytest.raises(ParseError, match="unexpected character"):
        parse("z1 $ z2")
    with pytest.raises(ParseError, match="unknown name 'g'"):
        parse("g + 1")
    with pytest.raises(ParseError, match="exponent must be a positive integer"):
        parse("z1^0")
    with pytest.raises(ParseError):
        parse("z1 + ")
    with pytest.raises(ParseError, match="unexpected token"):
        parse("z1 z2")


def test_node_validation() -> None:
    with pytest.raises(ValueError, match="unknown variable 'z3'"):
        Var("z3")
    with pytest.raises(ValueError, match="unknown variable"):
        ConjVar("w")
    with pytest.raises(ValueError, match="exponent must be a positive integer"):
        Pow(Var("z1"), 0)
    with pytest.raises(ValueError, match="constants must be finite"):
        const(float("nan"))
    with pytest.raises(ValueError):
        RealConst(float("inf"))


def test_an_exponent_that_no_float_holds_is_refused() -> None:
    """The jets' power rule multiplies by the exponent as a float, so one
    that float() cannot hold used to end in OverflowError at evaluation."""
    with pytest.raises(ParseError, match=r"exponent is too large for a float \(at position 3\)"):
        parse(f"z1^{2**1024}")
    with pytest.raises(ParseError, match="too large for a float"):
        parse("z1^1" + "0" * 5000)  # more digits than int() reads from text
    least = 2**1024 - 2**970  # the least int that float() rounds to inf
    with pytest.raises(OverflowError):
        float(least)
    for n in (2**1024, least):
        with pytest.raises(ValueError, match="exponent is too large for a float"):
            Pow(Var("z1"), n)
        with pytest.raises(ValueError, match="exponent is too large for a float"):
            Var("z1") ** n
        with pytest.raises(ParseError, match="too large for a float"):
            parse(f"z1^{n}")
    for n in (10**300, least - 1):
        assert parse(f"z1^{n}") == Pow(Var("z1"), n) == Var("z1") ** n


def test_operator_folding_identities() -> None:
    z1 = Var("z1")
    zero = const(0.0)
    one = const(1.0)
    assert z1 + zero == z1
    assert zero + z1 == z1
    assert z1 - zero == z1
    assert z1 * one == z1
    assert one * z1 == z1
    assert z1 * zero == RealConst(0.0)
    assert zero * z1 == RealConst(0.0)
    assert const(2.0) + const(0.5) == RealConst(2.5)
    assert const(2.0) * const(0.5) == RealConst(1.0)
    assert -const(2.0) == RealConst(-2.0)
    assert zero / z1 == Div(RealConst(0.0), z1)
    # Division only folds away a denominator equal to one.
    assert z1 / const(2.0) == Div(z1, RealConst(2.0))
    assert z1 / one == z1


def test_no_fold_hides_a_division() -> None:
    z1 = Var("z1")
    zero, one = const(0.0), const(1.0)
    assert zero / zero == Div(RealConst(0.0), RealConst(0.0))
    assert const(1.0) / const(4.0) == RealConst(0.25)
    assert zero * (one / z1) == Mul(zero, Div(one, z1))
    assert (one / z1).conj() * zero == Mul((one / z1).conj(), zero)
    assert zero * (z1 * z1 + one) == RealConst(0.0)


def test_no_fold_makes_a_constant_that_is_not_finite() -> None:
    """A fold whose result overflows is not made; the node is built as
    written, as 0/0 is, and its points overflow where it is evaluated."""
    big, huge, tiny = const(1e200), const(1e308), const(1e-300)
    assert big * big == Mul(big, big)
    assert huge + huge == Add(huge, huge)
    assert -huge - huge == Sub(RealConst(-1e308), huge)
    assert huge / tiny == Div(huge, tiny)
    assert const(10.0) ** 400 == Pow(RealConst(10.0), 400)
    assert big * const(1e100) == RealConst(1e300)
    z1 = Var("z1")
    assert (big * big) * z1 == Mul(Mul(big, big), z1)


def test_a_literal_that_reads_as_inf_is_refused_at_its_position() -> None:
    with pytest.raises(ParseError, match=r"number 1e999 is not a finite float \(at position 0\)"):
        parse("1e999 * z1")
    with pytest.raises(ParseError, match=r"number 1e999 is not a finite float \(at position 6\)"):
        parse("z1 + -1e999")
    assert parse("1e308") == RealConst(1e308)


def test_conjugation_folding() -> None:
    z1 = Var("z1")
    assert z1.conj() == ConjVar("z1")
    assert ConjVar("z2").conj() == Var("z2")
    assert const(2.5).conj() == RealConst(2.5)
    assert UnitI().conj() == Neg(UnitI())
    assert UnitJ().conj() == Neg(UnitJ())
    assert Conj(Add(z1, Var("z2"))).conj() == Add(z1, Var("z2"))
    # Raw constructor keeps the node; only the operator folds.
    assert Conj(UnitI()) != UnitI().conj()


def test_unparse_frozen_forms() -> None:
    assert unparse(parse("z1 + z2*j")) == "z1 + z2 * j"
    assert unparse(parse("conj(z1) + conj(z2)*j")) == "conj(z1) + conj(z2) * j"
    assert unparse(parse("1/(z1 + 2)")) == "1.0 / (z1 + 2.0)"
    assert unparse(parse("z1 - z2 - 1")) == "z1 - z2 - 1.0"
    assert unparse(Neg(RealConst(2.0))) == "-(2.0)"
    assert unparse(ConjVar("z1")) == "conj(z1)"
    assert unparse(UnitI()) == "i"
    assert unparse(Pow(Add(Var("z1"), RealConst(1.0)), 2)) == "(z1 + 1.0)^2"
    assert unparse(Mul(Add(Var("z1"), Var("z2")), Var("z1"))) == "(z1 + z2) * z1"


ROUND_TRIP_PROBE = Point4(0.37 + 0.61j, -0.45 + 0.19j)


@settings(max_examples=300)
@given(expr=EXPRESSIONS)
def test_unparse_parse_round_trip(expr) -> None:
    """One parse of the printed form folds the tree to normal form; the
    folded tree reprints and reparses to itself and keeps the value."""
    folded = parse(unparse(expr))
    assert parse(unparse(folded)) == folded
    try:
        before = eval_qexpr(expr, ROUND_TRIP_PROBE)
        after = eval_qexpr(folded, ROUND_TRIP_PROBE)
    except (SingularPointError, OverflowError, ZeroDivisionError):
        assume(False)
        return
    assume(cmath.isfinite(before.z1) and cmath.isfinite(before.z2))
    assert cmath.isclose(after.z1, before.z1, rel_tol=1e-9, abs_tol=1e-9)
    assert cmath.isclose(after.z2, before.z2, rel_tol=1e-9, abs_tol=1e-9)


@given(expr=EXPRESSIONS, seed=st.integers(0, 10_000), surface=st.booleans())
def test_lower_unparse_and_repr_agree_with_the_recursive_oracle(expr, seed, surface) -> None:
    """Nodes are interned, so the lowered pairs agree when their component
    nodes are the same objects."""
    tree = (random_surface_tree if surface else random_scalar_tree)(np.random.default_rng(seed), 4)
    for e in (expr, tree):
        assert lower(e) == oracle_lower(e)
        assert unparse(e) == oracle_unparse(e)
        assert repr(e) == oracle_repr(e)


PARSE_TOKENS = ["z1", "z2", "i", "j", "conj", "(", ")", "+", "-", "*", "/", "^", "2", "0", "0.5", "1e999", "x", "$", " "]


def _splice(text: str, i: int, token: str) -> str:
    """text with its i-th character replaced by token, or dropped."""
    return text[:i] + token + text[i + 1 :]


TEXTS = st.one_of(
    st.lists(st.sampled_from(PARSE_TOKENS), max_size=14).map("".join),
    EXPRESSIONS.map(unparse),
    st.builds(_splice, EXPRESSIONS.map(unparse), st.integers(0, 60), st.sampled_from(["", *PARSE_TOKENS])),
)


@settings(max_examples=400)
@given(text=TEXTS)
def test_parse_agrees_with_the_recursive_parser(text) -> None:
    """The same node, or a ParseError with the same message and position."""
    try:
        want = oracle_parse(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (got.value.args, got.value.position) == (exc.args, exc.position)
        return
    assert parse(text) is want


DEEP_TEXTS = {
    "sum-3000": " + ".join(["z1"] * 3_000),
    "sum-10000": " + ".join(["z1"] * 10_000),
    "parentheses-10000": "(" * 10_000 + "z1" + ")" * 10_000,
    "conj-5000": "conj(" * 5_000 + "z1 + z2*j" + ")" * 5_000,
}


@pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS.keys())
def test_trees_deeper_than_the_recursion_limit_print_and_reparse(text) -> None:
    e = parse(text)
    assert parse(unparse(e)) is e
    assert repr(e).startswith(f"{type(e).__name__}(")


def test_a_chain_deeper_than_the_recursion_limit_prints_and_lowers() -> None:
    """A 10,000-term sum prints term by term, and its lowered first
    component is the sum itself."""
    chain = parse(DEEP_TEXTS["sum-10000"])
    assert unparse(chain) == " + ".join(["z1"] * 10_000)
    assert lower(chain).f1 is chain


def test_parse_definitions_reads_named_functions() -> None:
    text = "# scratch functions\nf = z1*z2\n\ng = conj(z1)\n"
    defs = parse_definitions(text)
    assert list(defs) == ["f", "g"]
    assert defs["f"] == Mul(Var("z1"), Var("z2"))
    assert defs["g"] == ConjVar("z1")


def test_parse_definitions_errors() -> None:
    with pytest.raises(ParseError, match="line 1: 'z1' is a reserved word"):
        parse_definitions("z1 = z2")
    with pytest.raises(ParseError, match="line 1: 'j' is a reserved word"):
        parse_definitions("j = z1")
    with pytest.raises(ParseError, match=r"line 1: expected `name = <expression>`"):
        parse_definitions("f  z1")
    with pytest.raises(ParseError, match="line 2: duplicate definition of 'f'"):
        parse_definitions("f = z1\nf = z2")
    with pytest.raises(ParseError, match="line 1: unknown name 'g'"):
        parse_definitions("f = g + 1")
    with pytest.raises(ParseError, match=r"line 1: unexpected token '\*'"):
        parse_definitions("f = z1 +* 2")


def test_has_j_holds_on_deep_chains_and_shared_subtrees() -> None:
    deep = Var("z1")
    for _ in range(3000):
        deep = Neg(deep)
    assert not deep.has_j
    assert Add(deep, UnitJ()).has_j
    # 2**64 paths through 65 distinct nodes
    shared = Var("z2")
    for _ in range(64):
        shared = Mul(shared, shared)
    assert not shared.has_j
    assert Sub(shared, Mul(shared, UnitJ())).has_j


def test_equal_structures_are_one_node() -> None:
    z1, cz2 = Var("z1"), ConjVar("z2")
    built = Add(Mul(z1, cz2), RealConst(1.5))
    assert parse("z1*conj(z2) + 1.5") is built
    assert parse_definitions("f = z1 * conj(z2) + 1.5")["f"] is built
    assert const(1.5) is RealConst(1.5)
    assert const(2 + 3j) is Add(RealConst(2.0), Mul(RealConst(3.0), UnitI()))
    assert z1 * cz2 + 1.5 is built
    assert z1 * const(0.0) is RealConst(0.0)
    assert const(2.0) + const(0.5) is RealConst(2.5)
    assert z1.conj() is ConjVar("z1")
    assert UnitI().conj() is Neg(UnitI())
    assert Conj(Add(z1, cz2)).conj() is Add(z1, cz2)


def test_leaves_are_keyed_on_their_repr() -> None:
    """Signed zeros, and ints apart from floats, stay distinct nodes, each
    keeping the value it was built with; folds still test values."""
    consts = [RealConst(-0.0), RealConst(0.0), RealConst(3), RealConst(np.float64(3.0))]
    assert len({id(c) for c in consts}) == 4
    assert RealConst(3.0) not in consts
    assert [type(c.value) for c in consts] == [float, float, int, np.float64]
    assert [unparse(c) for c in consts] == ["-0.0", "0.0", "3", "np.float64(3.0)"]
    assert RealConst(-0.0) * Var("z1") is RealConst(0.0)
    assert Var("z1") + RealConst(-0.0) is Var("z1")


def test_nodes_carry_their_children_and_flags() -> None:
    e = parse("z1/(z2 + 1) + j")
    quotient = Div(Var("z1"), Add(Var("z2"), RealConst(1.0)))
    assert e.kids == (quotient, UnitJ())
    assert e.has_j and e.has_div
    assert quotient.has_div and not quotient.has_j
    assert Pow(Var("z1"), 3).kids == (Var("z1"),)
    assert RealConst(1.0).kids == ()
    with pytest.raises(AttributeError, match="immutable"):
        Var("z1").name = "z2"
    with pytest.raises(TypeError):
        Add(Var("z1"))


def test_the_node_table_is_weak() -> None:
    gc.collect()
    before = len(expr_module._LIVE)
    deep = Var("z1")
    for k in range(3000):
        deep = Sub(deep, RealConst(k + 0.25))
    assert len(expr_module._LIVE) >= before + 3000
    del deep
    gc.collect()
    assert len(expr_module._LIVE) == before


def _fields(e: QExpr) -> list:
    return [getattr(e, name) for name in e.__match_args__]


def _old_key(e: QExpr) -> tuple:
    """The structural key grid_jets built per node before nodes were
    interned: the type, the repr of each field that is not a node, and
    the children's keys."""
    fields = _fields(e)
    leaves = tuple(repr(v) for v in fields if not isinstance(v, QExpr))
    return (type(e), leaves, *(_old_key(v) for v in fields if isinstance(v, QExpr)))


def _subtrees(e: QExpr) -> list[QExpr]:
    return [e, *(s for v in _fields(e) if isinstance(v, QExpr) for s in _subtrees(v))]


LEAF_VALUES = st.sampled_from([0.0, -0.0, 3, 3.0, np.float64(3.0)])


@given(
    seeds=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    depth=st.integers(0, 3),
    surface=st.booleans(),
    values=st.tuples(LEAF_VALUES, LEAF_VALUES),
)
def test_nodes_are_one_object_exactly_when_their_old_keys_agree(seeds, depth, surface, values) -> None:
    tree = random_surface_tree if surface else random_scalar_tree
    a, b = (Sub(tree(np.random.default_rng(s), depth), RealConst(v)) for s, v in zip(seeds, values))
    nodes = _subtrees(a) + _subtrees(b)
    keys = [_old_key(x) for x in nodes]
    for x, kx in zip(nodes, keys):
        for y, ky in zip(nodes, keys):
            assert (x is y) == (kx == ky)
            assert (x == y) == (kx == ky)
    plan = post_order((a, b))
    assert len(plan) == len(set(keys)) == len({_old_key(x) for x in plan})
