"""Property-based tests for ``.cat`` semantics.

Hypothesis generates random small executions and random expressions
over sets and relations.  Each expression is compiled
(:func:`~repro.cat.compile.compile_model`) and its value taken by the
scalar IR reference; that value must equal an independent fold of the
expression over :class:`~repro.core.relation.Relation` and ``frozenset``
operators on the execution, satisfy the relational-algebra
laws, and agree with the native derived relations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cat.compile import compile_model
from repro.cat.parser import parse
from repro.core.builder import ExecutionBuilder
from repro.core.relation import Relation
from repro.ir.eval import evaluate

#: Relation leaves usable in generated expressions, each with its value
#: on the execution.
_RELATION_LEAVES = {
    "po": lambda a: a.po,
    "rf": lambda a: a.rf_rel,
    "co": lambda a: a.co_rel,
    "fr": lambda a: a.fr,
    "loc": lambda a: a.sloc,
    "int": lambda a: a.sthd,
    "id": lambda a: Relation.identity(a.n),
    "addr": lambda a: a.addr_rel,
    "ctrl": lambda a: a.ctrl_rel,
}

#: Event-set leaves, likewise.
_SET_LEAVES = {
    "_": lambda a: frozenset(range(a.n)),
    "R": lambda a: a.reads,
    "W": lambda a: a.writes,
    "M": lambda a: a.accesses,
}

#: Relation and set operators, folded with the native operators.
_BINARY = {
    "|": lambda lhs, rhs: lhs | rhs,
    "&": lambda lhs, rhs: lhs & rhs,
    "\\": lambda lhs, rhs: lhs - rhs,
}
_POSTFIX = {
    "^+": Relation.plus,
    "^*": Relation.star,
    "?": Relation.opt,
    "^-1": Relation.inverse,
}


def evaluate_expr(source, x):
    """The IR value of one expression under the primitive environment."""
    compiled = compile_model(parse(f"let probe = {source}"), None)
    return evaluate(dict(compiled.bindings)["probe"], x)


def _as_relation(value, n):
    """``;`` promotes an event set to the identity on it."""
    if isinstance(value, Relation):
        return value
    return Relation.lift(n, value)


@st.composite
def executions(draw):
    """Small random executions: 2 threads, up to 5 events, rf/co random."""
    b = ExecutionBuilder()
    writes: list[int] = []
    reads: list[int] = []
    for _ in range(2):
        thread = b.thread()
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            loc = draw(st.sampled_from(["x", "y"]))
            if draw(st.booleans()):
                writes.append(thread.write(loc))
            else:
                reads.append(thread.read(loc))
    x_probe = b.build()
    for r in reads:
        loc = x_probe.events[r].loc
        candidates = [w for w in writes if x_probe.events[w].loc == loc]
        if candidates and draw(st.booleans()):
            b.rf(draw(st.sampled_from(candidates)), r)
    return b.build()


@st.composite
def expressions(draw, depth: int = 3, kind: str = "rel"):
    """A random expression of ``kind`` (``"rel"`` or ``"set"``): its
    source text and its fold, a function of the execution."""
    leaves = _RELATION_LEAVES if kind == "rel" else _SET_LEAVES
    if depth == 0 or draw(st.integers(min_value=0, max_value=2)) == 0:
        name = draw(st.sampled_from(sorted(leaves)))
        return name, leaves[name]
    sub = depth - 1
    if kind == "rel":
        forms = ["bin", "compl", "seq", "post", "lift", "cross"]
    else:
        forms = ["bin", "compl", "domain", "range"]
    form = draw(st.sampled_from(forms))
    if form == "bin":
        op = draw(st.sampled_from(sorted(_BINARY)))
        fn = _BINARY[op]
        ls, lf = draw(expressions(sub, kind))
        rs, rf = draw(expressions(sub, kind))
        return f"({ls} {op} {rs})", lambda a: fn(lf(a), rf(a))
    if form == "compl":
        bs, bf = draw(expressions(sub, kind))
        if kind == "set":
            return f"~({bs})", lambda a: frozenset(range(a.n)) - bf(a)
        return f"~({bs})", lambda a: bf(a).complement()
    if form == "domain":
        bs, bf = draw(expressions(sub))
        return f"domain({bs})", lambda a: bf(a).domain()
    if form == "range":
        bs, bf = draw(expressions(sub))
        return f"range({bs})", lambda a: bf(a).codomain()
    if form == "seq":
        # Either operand may be an event set, which ``;`` promotes.
        left, right = draw(
            st.sampled_from([("rel", "rel"), ("set", "rel"), ("rel", "set")])
        )
        ls, lf = draw(expressions(sub, left))
        rs, rf = draw(expressions(sub, right))
        return f"({ls} ; {rs})", lambda a: (
            _as_relation(lf(a), a.n) @ _as_relation(rf(a), a.n)
        )
    if form == "post":
        op = draw(st.sampled_from(sorted(_POSTFIX)))
        fn = _POSTFIX[op]
        bs, bf = draw(expressions(sub))
        return f"({bs}){op}", lambda a: fn(bf(a))
    if form == "lift":
        bs, bf = draw(expressions(sub, "set"))
        return f"[{bs}]", lambda a: Relation.lift(a.n, bf(a))
    ls, lf = draw(expressions(sub, "set"))
    rs, rf = draw(expressions(sub, "set"))
    return f"({ls} * {rs})", lambda a: Relation.cross(a.n, lf(a), rf(a))


class TestAlgebraicLaws:
    @settings(max_examples=300, deadline=None)
    @given(x=executions(), data=st.data())
    def test_random_expressions_evaluate_to_relations(self, x, data):
        """The compiled value equals the native fold of the expression."""
        source, fold = data.draw(expressions())
        value = evaluate_expr(source, x)
        assert isinstance(value, Relation)
        assert value.n == x.n
        assert value == fold(x), source

    @settings(max_examples=40, deadline=None)
    @given(x=executions(), data=st.data())
    def test_union_commutes(self, x, data):
        a, _ = data.draw(expressions(depth=2))
        b, _ = data.draw(expressions(depth=2))
        assert evaluate_expr(f"({a}) | ({b})", x) == evaluate_expr(
            f"({b}) | ({a})", x
        )

    @settings(max_examples=40, deadline=None)
    @given(x=executions(), data=st.data())
    def test_de_morgan(self, x, data):
        a, _ = data.draw(expressions(depth=2))
        b, _ = data.draw(expressions(depth=2))
        lhs = evaluate_expr(f"~(({a}) | ({b}))", x)
        rhs = evaluate_expr(f"~({a}) & ~({b})", x)
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(x=executions(), data=st.data())
    def test_double_complement(self, x, data):
        a, _ = data.draw(expressions(depth=2))
        assert evaluate_expr(f"~(~({a}))", x) == evaluate_expr(a, x)

    @settings(max_examples=40, deadline=None)
    @given(x=executions(), data=st.data())
    def test_closure_idempotent(self, x, data):
        a, _ = data.draw(expressions(depth=2))
        once = evaluate_expr(f"({a})^*", x)
        twice = evaluate_expr(f"(({a})^*)^*", x)
        assert once == twice

    @settings(max_examples=40, deadline=None)
    @given(x=executions(), data=st.data())
    def test_inverse_involution(self, x, data):
        a, _ = data.draw(expressions(depth=2))
        assert evaluate_expr(f"(({a})^-1)^-1", x) == evaluate_expr(a, x)

    @settings(max_examples=40, deadline=None)
    @given(x=executions(), data=st.data())
    def test_seq_associates(self, x, data):
        a, _ = data.draw(expressions(depth=1))
        b, _ = data.draw(expressions(depth=1))
        c, _ = data.draw(expressions(depth=1))
        lhs = evaluate_expr(f"(({a}) ; ({b})) ; ({c})", x)
        rhs = evaluate_expr(f"({a}) ; (({b}) ; ({c}))", x)
        assert lhs == rhs


class TestNativeAgreement:
    @settings(max_examples=60, deadline=None)
    @given(x=executions())
    def test_fr_matches_paper_definition(self, x):
        """fr = ([R]; loc; [W]) \\ (rf^-1; (co^-1)^*) — the §2.1 formula
        evaluated in cat equals the primitive."""
        derived = evaluate_expr(
            "([R] ; loc ; [W]) \\ (rf^-1 ; (co^-1)^*)", x
        )
        assert derived == x.fr

    @settings(max_examples=60, deadline=None)
    @given(x=executions())
    def test_com_union(self, x):
        assert evaluate_expr("rf | co | fr", x) == x.com

    @settings(max_examples=60, deadline=None)
    @given(x=executions())
    def test_external_restriction(self, x):
        assert evaluate_expr("(rf | co | fr) & ext", x) == x.come
