"""Property-based tests over randomly generated executions.

The generator builds arbitrary well-formed executions (bounded size) and
the properties assert the semantic relationships the paper relies on:

* model strength: SC-consistent ⊆ x86-consistent ⊆ Power-consistent, and
  SC ⊆ ARMv8 (the architectures only *relax* SC);
* TSC-consistency implies SC-consistency and strong isolation;
* isolation: stronglift-acyclicity implies weaklift-acyclicity;
* monotonicity of x86 under transaction erasure: erasing all transactions
  from an x86-consistent execution keeps it consistent (tfence/TxnOrder
  only constrain);
* canonical keys are invariant under thread and location renaming;
* litmus round trip: the intended execution's outcome is always among the
  candidates of its generated test.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind, Label
from repro.core.execution import Execution, Transaction
from repro.core.relation import Relation
from repro.core.wellformed import is_wellformed
from repro.litmus.candidates import candidate_executions
from repro.litmus.from_execution import to_litmus
from repro.models.isolation import strongly_isolated, weakly_isolated
from repro.models.registry import get_model
from repro.synth.canonical import canonical_key
from repro.synth.generate import EnumerationSpace, enumerate_executions
from repro.synth.minimality import weakenings

MAX_EVENTS = 5
LOCS = ["x", "y"]


@st.composite
def executions(draw, with_txns=True, labels=False):
    n = draw(st.integers(1, MAX_EVENTS))
    # Threads: a random ordered partition of range(n).
    n_threads = draw(st.integers(1, min(n, 3)))
    if n_threads == 1 or n == 1:
        boundaries = []
    else:
        boundaries = sorted(
            draw(
                st.lists(
                    st.integers(1, n - 1),
                    max_size=n_threads - 1,
                    unique=True,
                )
            )
        )
    threads = []
    prev = 0
    for b in boundaries + [n]:
        threads.append(list(range(prev, b)))
        prev = b

    events = []
    for i in range(n):
        kind = draw(st.sampled_from([EventKind.READ, EventKind.WRITE]))
        loc = draw(st.sampled_from(LOCS))
        labelset = frozenset()
        if labels and kind == EventKind.READ and draw(st.booleans()):
            labelset = frozenset({Label.ACQ})
        if labels and kind == EventKind.WRITE and draw(st.booleans()):
            labelset = frozenset({Label.REL})
        events.append(Event(kind, loc, labelset))

    reads = [i for i, e in enumerate(events) if e.is_read]
    writes_by_loc = {}
    for i, e in enumerate(events):
        if e.is_write:
            writes_by_loc.setdefault(e.loc, []).append(i)

    rf = {}
    for r in reads:
        choices = [None] + writes_by_loc.get(events[r].loc, [])
        w = draw(st.sampled_from(choices))
        if w is not None:
            rf[r] = w

    co = {}
    for loc, ws in writes_by_loc.items():
        co[loc] = tuple(draw(st.permutations(ws)))

    txns = []
    if with_txns and draw(st.booleans()):
        tid = draw(st.integers(0, len(threads) - 1))
        thread = threads[tid]
        start = draw(st.integers(0, len(thread) - 1))
        end = draw(st.integers(start, len(thread) - 1))
        txns.append(Transaction(tuple(thread[start:end + 1])))

    return Execution(
        events=events, threads=threads, rf=rf, co=co, txns=txns
    )


@settings(max_examples=150, deadline=None)
@given(executions())
def test_generator_produces_wellformed(x):
    assert is_wellformed(x)


# The "architectures only relax SC" implications hold for TRANSACTION-
# FREE executions only: Fig. 3 exhibits SC executions that strong
# isolation forbids, so SC does not imply any TM model once transactions
# appear.  The transactional upper bound is TSC (§3.4: the proposed
# models "all lie between these bounds"), asserted separately below.


@settings(max_examples=120, deadline=None)
@given(executions(with_txns=False))
def test_sc_implies_x86_without_txns(x):
    if get_model("sc").consistent(x):
        assert get_model("x86").consistent(x)


@settings(max_examples=120, deadline=None)
@given(executions(with_txns=False))
def test_x86_implies_power_without_txns(x):
    if get_model("x86").consistent(x):
        assert get_model("power").consistent(x)


@settings(max_examples=120, deadline=None)
@given(executions(with_txns=False, labels=True))
def test_sc_implies_armv8_without_txns(x):
    if get_model("sc").consistent(x):
        assert get_model("armv8").consistent(x)


@settings(max_examples=120, deadline=None)
@given(executions(with_txns=False, labels=True))
def test_sc_implies_riscv_without_txns(x):
    if get_model("sc").consistent(x):
        assert get_model("riscv").consistent(x)


@settings(max_examples=120, deadline=None)
@given(executions(labels=True))
def test_tsc_implies_every_tm_model(x):
    """TSC is the upper bound on TM guarantees (§3.4): anything TSC
    admits, every proposed model admits — transactions included."""
    if get_model("tsc").consistent(x):
        for arch in ("x86", "power", "armv8", "riscv"):
            assert get_model(arch).consistent(x), arch


@settings(max_examples=120, deadline=None)
@given(executions())
def test_tsc_implies_sc_and_strong_isolation(x):
    if get_model("tsc").consistent(x):
        assert get_model("sc").consistent(x)
        assert strongly_isolated(x)


@settings(max_examples=120, deadline=None)
@given(executions())
def test_strong_isolation_implies_weak(x):
    if strongly_isolated(x):
        assert weakly_isolated(x)


@settings(max_examples=120, deadline=None)
@given(executions())
def test_txn_erasure_weakens_x86(x):
    """Erasing transactions can only make more behaviour consistent —
    the flip side of §8.1 monotonicity, which does hold for x86."""
    if get_model("x86").consistent(x):
        assert get_model("x86").consistent(x.without_transactions())


@settings(max_examples=120, deadline=None)
@given(executions())
def test_canonical_key_thread_permutation(x):
    reversed_threads = list(reversed(x.threads))
    y = Execution(
        events=x.events,
        threads=reversed_threads,
        rf=x.rf,
        co=x.co,
        txns=x.txns,
    )
    assert canonical_key(x) == canonical_key(y)


@settings(max_examples=120, deadline=None)
@given(executions())
def test_canonical_key_location_renaming(x):
    renaming = {"x": "a", "y": "b"}
    events = [
        Event(e.kind, renaming.get(e.loc, e.loc), e.labels)
        if e.is_access
        else e
        for e in x.events
    ]
    y = Execution(
        events=events,
        threads=x.threads,
        rf=x.rf,
        co={renaming.get(l, l): v for l, v in x.co.items()},
        txns=x.txns,
    )
    assert canonical_key(x) == canonical_key(y)


@settings(max_examples=80, deadline=None)
@given(executions())
def test_litmus_roundtrip_candidate_exists(x):
    test = to_litmus(x, "random", "armv8")
    assert any(
        test.check(c.outcome) for c in candidate_executions(test.program)
    )


def _sloc_definition(x):
    """Pairs of accesses with equal ``loc`` (``None`` included)."""
    return Relation.from_pairs(
        x.n,
        [
            (a, b)
            for a in x.accesses
            for b in x.accesses
            if x.events[a].loc == x.events[b].loc
        ],
    )


def _fr_formula(x):
    """``([R]; sloc; [W]) \\ (rf⁻¹; (co⁻¹)*)`` from public operators."""
    r_sloc_w = Relation.lift(x.n, x.reads).then(
        _sloc_definition(x), Relation.lift(x.n, x.writes)
    )
    return r_sloc_w - x.rf_rel.inverse() @ x.co_rel.inverse().star()


@settings(max_examples=80, deadline=None)
@given(executions())
def test_fr_definition_consistency(x):
    """fr relates each read to exactly the co-successors of its source,
    and equals its defining formula."""
    assert x.fr == _fr_formula(x)
    for r in x.reads:
        loc = x.events[r].loc
        same_loc_writes = {
            w for w in x.writes if x.events[w].loc == loc
        }
        src = x.rf.get(r)
        if src is None:
            expected = same_loc_writes
        else:
            order = x.co.get(loc, tuple(same_loc_writes))
            pos = order.index(src)
            expected = set(order[pos + 1:])
        assert {b for a, b in x.fr.pairs() if a == r} == expected


@st.composite
def malformed_executions(draw):
    """Executions with arbitrary ``rf`` and ``co``: a read may read from
    any event, and a ``co`` list may repeat events, hold non-writes, or
    share them with another location's list, so ``co`` need not be
    transitive."""
    n = draw(st.integers(1, MAX_EVENTS + 1))
    kinds = [EventKind.READ, EventKind.WRITE, EventKind.FENCE]
    events = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        loc = None if kind is EventKind.FENCE else draw(st.sampled_from(LOCS))
        events.append(Event(kind, loc))
    ids = st.integers(0, n - 1)
    rf = draw(st.dictionaries(ids, ids))
    co = draw(st.dictionaries(st.sampled_from(LOCS), st.lists(ids, max_size=4)))
    return Execution(events=events, threads=[list(range(n))], rf=rf, co=co)


@settings(max_examples=300, deadline=None)
@given(malformed_executions())
@example(
    # co relates 1 -> 2 and 2 -> 3 but not 1 -> 3: only the transitive
    # closure of co removes write 1 from the read's fr row.
    Execution(
        events=[Event(EventKind.READ, "x")]
        + [Event(EventKind.WRITE, "x")] * 3,
        threads=[[0, 1, 2, 3]],
        rf={0: 3},
        co={"x": (2, 3), "y": (1, 2)},
    )
)
def test_direct_relations_match_formulas_on_malformed_executions(x):
    fr = _fr_formula(x)
    assert x.fr == fr
    assert x.sloc == _sloc_definition(x)
    assert x.com == x.rf_rel | x.co_rel | fr


def test_base_relations_match_operator_definitions():
    """``fr``, ``sloc`` and ``com`` are computed directly on row masks;
    each must equal its operator definition on every x86 execution with
    three events and on each of its one-step weakenings (which include
    executions no enumeration would produce)."""
    space = EnumerationSpace.for_arch("x86", 3)
    checked = 0
    for x in enumerate_executions(space):
        for y in (x, *weakenings(x, space.vocab)):
            sloc = _sloc_definition(y)
            fr = _fr_formula(y)
            assert y.sloc == sloc
            assert y.fr == fr
            assert y.com == y.rf_rel | y.co_rel | fr
            checked += 1
    assert checked > 10_000


@settings(max_examples=80, deadline=None)
@given(executions())
def test_com_edges_are_same_location(x):
    for a, b in x.com.pairs():
        assert x.events[a].loc == x.events[b].loc


@settings(max_examples=80, deadline=None)
@given(executions())
def test_external_internal_partition(x):
    assert x.rfe | x.rfi == x.rf_rel
    assert (x.rfe & x.rfi).is_empty()
