"""The BDD kernel against brute-force truth tables.

Random expression DAGs over at most six variables, declared in a random
order, are built with every public operation.  Each result must have
the truth table computed independently from its operands' tables, and
equal functions must share one node (canonicity).  The one-pass
quantifiers and the relational product must also return the very node
their per-variable and build-then-quantify definitions return.  The
node budget must stop a manager at exactly its size and leave it usable.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.bdd.bdd import BDD, BDDBudgetExceeded

SETTINGS = settings(max_examples=60, deadline=None)

NAMES = [f"x{i}" for i in range(6)]


# -- truth tables: bit m is the value at minterm m, variable i = bit i ----

def var_table(i, n):
    return sum(1 << m for m in range(1 << n) if m >> i & 1)


def table(f, n):
    return sum(1 << m for m in range(1 << n)
               if f.evaluate({NAMES[i]: m >> i & 1 for i in range(n)}))


def substitute(tt, i, value, n):
    """Table of ``tt`` with variable ``i`` replaced by table ``value``."""
    return sum(1 << m for m in range(1 << n)
               if tt >> (m & ~(1 << i) | (value >> m & 1) << i) & 1)


def restrict_table(tt, idxs, phase, n):
    for i in idxs:
        tt = substitute(tt, i, -phase, n)    # 0 or all ones
    return tt


def exists_table(tt, idxs, n):
    for i in idxs:
        tt = restrict_table(tt, [i], 0, n) | restrict_table(tt, [i], 1, n)
    return tt


def forall_table(tt, idxs, n):
    for i in idxs:
        tt = restrict_table(tt, [i], 0, n) & restrict_table(tt, [i], 1, n)
    return tt


# -- oracle: the kernel's former per-variable quantifier -------------------

def exists_one(bdd, f, level):
    lo = bdd._restrict(f, level, 0, {})
    hi = bdd._restrict(f, level, 1, {})
    return bdd._ite(lo, BDD.TRUE, hi)


def exists_fold(f, names):
    bdd, node = f.bdd, f.node
    for name in names:
        node = exists_one(bdd, node, bdd.var_level[name])
    return node


# -- random DAGs -------------------------------------------------------------

OPS = ["and", "or", "xor", "not", "ite", "restrict", "compose", "exists",
       "forall", "and_exists"]


def apply(op, f, g, h, idxs, phase, n):
    """One operation on ``(function, table)`` operands: the kernel's
    result and the table it must have."""
    (ff, ft), (gf, gt), (hf, ht) = f, g, h
    full = (1 << (1 << n)) - 1
    names = [NAMES[i] for i in idxs]
    if op == "and":
        return ff & gf, ft & gt
    if op == "or":
        return ff | gf, ft | gt
    if op == "xor":
        return ff ^ gf, ft ^ gt
    if op == "not":
        return ~ff, full & ~ft
    if op == "ite":
        return ff.ite(gf, hf), (ft & gt) | (full & ~ft & ht)
    if op == "restrict":
        return (ff.restrict({name: phase for name in names}),
                restrict_table(ft, idxs, phase, n))
    if op == "compose":
        i = idxs[0] if idxs else 0
        return ff.compose(NAMES[i], gf), substitute(ft, i, gt, n)
    if op == "exists":
        return ff.exists(names), exists_table(ft, idxs, n)
    if op == "forall":
        return ff.forall(names), forall_table(ft, idxs, n)
    assert op == "and_exists"
    return ff.and_exists(gf, names), exists_table(ft & gt, idxs, n)


def random_dag(seed, order):
    """A manager declaring ``order`` and a pool of ``(function, table)``
    pairs: constants, variables, then every operation three times on
    random operands from the pool."""
    n = len(order)
    rng = random.Random(seed)
    bdd = BDD(order)
    full = (1 << (1 << n)) - 1
    pool = [(bdd.false, 0), (bdd.true, full)]
    pool += [(bdd.var(NAMES[i]), var_table(i, n)) for i in range(n)]
    for op in OPS * 3:
        f, g, h = (rng.choice(pool) for _ in range(3))
        idxs = rng.sample(range(n), rng.randint(0, n))
        result, expected = apply(op, f, g, h, idxs, rng.randint(0, 1), n)
        assert table(result, n) == expected, op
        pool.append((result, expected))
    return bdd, pool, rng


dag_args = dict(seed=st.integers(0, 10 ** 6),
                order=st.integers(1, 6).flatmap(
                    lambda n: st.permutations(NAMES[:n])))


class TestAgainstTruthTables:
    @SETTINGS
    @given(**dag_args)
    def test_every_operation(self, seed, order):
        random_dag(seed, order)

    @SETTINGS
    @given(**dag_args)
    def test_equal_functions_share_a_node(self, seed, order):
        _bdd, pool, _rng = random_dag(seed, order)
        node_of = {}
        for f, tt in pool:
            assert node_of.setdefault(tt, f.node) == f.node
        assert len(set(node_of.values())) == len(node_of)


class TestQuantifierIdentities:
    @SETTINGS
    @given(**dag_args)
    def test_exists_is_the_per_variable_fold(self, seed, order):
        bdd, pool, rng = random_dag(seed, order)
        for f, _tt in pool:
            names = rng.sample(list(order), rng.randint(0, len(order)))
            assert f.exists(names).node == exists_fold(f, names)
            assert f.forall(names).node == \
                bdd._not(exists_fold(~f, names))

    @SETTINGS
    @given(**dag_args)
    def test_and_exists_is_exists_of_the_conjunction(self, seed, order):
        _bdd, pool, rng = random_dag(seed, order)
        for f, _tt in pool:
            g, _gt = rng.choice(pool)
            names = rng.sample(list(order), rng.randint(0, len(order)))
            assert f.and_exists(g, names).node == \
                (f & g).exists(names).node


# -- the node budget ----------------------------------------------------------

def parity(bdd, names):
    acc = bdd.false
    for name in names:
        acc = acc ^ bdd.var(name)
    return acc


def assert_consistent(bdd):
    """Every node is in the unique table under its own triple."""
    assert len(bdd._unique) == bdd.num_nodes() - 2
    for node in range(2, bdd.num_nodes()):
        key = (bdd._level[node], bdd._lo[node], bdd._hi[node])
        assert bdd._unique[key] == node


class TestNodeBudget:
    def test_fires_at_exactly_the_budget(self, monkeypatch):
        size = BDD(NAMES).num_nodes()
        full = BDD(NAMES)
        parity(full, NAMES)
        needed = full.num_nodes()
        raised_in = set()
        for budget in range(size + 1, needed + 1):
            monkeypatch.setattr("repro.bdd.bdd.NODE_BUDGET", budget)
            bdd = BDD(NAMES)
            try:
                parity(bdd, NAMES)
            except BDDBudgetExceeded as exc:
                assert budget < needed
                assert bdd.num_nodes() == budget
                tb = exc.__traceback__
                while tb.tb_next:
                    tb = tb.tb_next
                raised_in.add(tb.tb_frame.f_code.co_name)
            else:
                assert budget == needed
            assert_consistent(bdd)
        assert raised_in == {"_mk", "_ite"}

    def test_manager_usable_and_canonical_after(self, monkeypatch):
        monkeypatch.setattr("repro.bdd.bdd.NODE_BUDGET", 12)
        bdd = BDD(NAMES)
        try:
            parity(bdd, NAMES)
        except BDDBudgetExceeded:
            pass
        else:
            raise AssertionError("budget of 12 nodes did not fire")
        monkeypatch.undo()
        f = parity(bdd, NAMES)
        assert parity(bdd, NAMES[::-1]) == f
        assert table(f, 6) == (var_table(0, 6) ^ var_table(1, 6)
                               ^ var_table(2, 6) ^ var_table(3, 6)
                               ^ var_table(4, 6) ^ var_table(5, 6))
        fresh = BDD(NAMES)
        parity(fresh, NAMES)
        assert bdd.num_nodes() == fresh.num_nodes()
        assert_consistent(bdd)
