"""The vendored CDCL solver and CNF builder behind the exact backend.

The solver is trusted with optimality *certificates* (an UNSAT answer at
interval s is the proof that s is infeasible), so it is validated against
brute-force enumeration on every formula small enough to enumerate, plus
the classic pigeonhole family where a wrong UNSAT engine typically breaks.
Its order-heap decisions are held to a scan of every variable
(:class:`tests.reference.ScanDecisionSolver`): same statistics, same
model, on random formulas, pigeonholes and the corpus graphs' encodings.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import repro.exact.backend
import repro.exact.solver
from repro.audit.generate import GraphConfig, random_dep_graph
from repro.exact import (
    SAT,
    UNKNOWN,
    UNSAT,
    CdclSolver,
    Cnf,
    ExactScheduler,
    ModuloCnf,
)
from repro.exact.solver import SolveResult
from repro.machine import SIMPLE, WARP

from reference import ScanDecisionSolver

CORPUS = Path(__file__).parent / "corpus" / "graphs"


def _brute_force(num_vars, clauses):
    """Ground-truth satisfiability by enumeration (num_vars <= ~12)."""
    for bits in itertools.product((False, True), repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(
            any(model[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return model
    return None


def _check_model(clauses, model):
    for clause in clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in clause), (
            f"model violates clause {clause}"
        )


def _status(cnf, *units):
    """The solver's verdict on ``cnf`` with ``units`` added."""
    return CdclSolver(cnf.num_vars, cnf.clauses + list(units)).solve().status


def _pigeonhole(holes):
    """PHP(holes+1, holes): unsatisfiable, and hard for resolution."""
    cnf = Cnf()
    var = {
        (p, h): cnf.new_var()
        for p in range(holes + 1)
        for h in range(holes)
    }
    for p in range(holes + 1):
        cnf.add(*(var[p, h] for h in range(holes)))
    for h in range(holes):
        cnf.add_at_most_k([var[p, h] for p in range(holes + 1)], 1)
    return cnf


def _random_formulas():
    """150 seeded random 3-SAT-ish formulas near the phase transition."""
    rng = random.Random(1988)
    for _ in range(150):
        num_vars = rng.randrange(3, 9)
        num_clauses = rng.randrange(1, int(4.5 * num_vars))
        clauses = [
            [
                lit if rng.random() < 0.5 else -lit
                for lit in rng.sample(
                    range(1, num_vars + 1), rng.randrange(1, 4)
                )
            ]
            for _ in range(num_clauses)
        ]
        yield num_vars, clauses


@pytest.fixture(scope="module")
def corpus_encodings():
    """Every ``ModuloCnf`` that ``minimum_ii`` builds for the corpus
    graphs, as ``(num_vars, clauses)`` copied before any solve."""
    built = []

    class Recording(ModuloCnf):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.num_vars, [list(c) for c in self.clauses]))

    machines = {"warp": WARP, "simple": SIMPLE}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.exact.backend, "ModuloCnf", Recording)
        for path in sorted(CORPUS.glob("*.json")):
            entry = json.loads(path.read_text())
            generator = entry["generator"]
            machine = machines[entry["machine"]]
            graph = random_dep_graph(
                generator["seed"], machine, GraphConfig(**generator["config"])
            )
            ExactScheduler(machine).minimum_ii(graph)
    assert built
    return built


def _search(solver_class, num_vars, clauses):
    """Everything a search decides, on a private copy of ``clauses``."""
    solver = solver_class(num_vars, [list(c) for c in clauses])
    result = solver.solve()
    return (
        result.status,
        result.model,
        result.conflicts,
        result.decisions,
        result.propagations,
        result.restarts,
    )


def _assert_same_search(num_vars, clauses):
    assert _search(CdclSolver, num_vars, clauses) == _search(
        ScanDecisionSolver, num_vars, clauses
    )


class TestCdclSolver:
    def test_empty_formula_is_sat(self):
        assert CdclSolver(0, []).solve().status == SAT

    def test_empty_clause_is_unsat(self):
        assert CdclSolver(1, [[]]).solve().status == UNSAT

    def test_unit_propagation_chain(self):
        # 1, 1->2, 2->3: pure propagation, no decisions needed.
        result = CdclSolver(3, [[1], [-1, 2], [-2, 3]]).solve()
        assert result.status == SAT
        assert result[1] and result[2] and result[3]
        assert result.decisions == 0

    def test_contradictory_units(self):
        assert CdclSolver(1, [[1], [-1]]).solve().status == UNSAT

    def test_model_indexing_matches_dict(self):
        result = CdclSolver(2, [[1], [-2]]).solve()
        assert result.status == SAT
        assert result[1] is result.model[1]
        assert result[2] is False

    def test_random_formulas_match_brute_force(self):
        for trial, (num_vars, clauses) in enumerate(_random_formulas()):
            expected = _brute_force(num_vars, clauses)
            result = CdclSolver(num_vars, clauses).solve()
            if expected is None:
                assert result.status == UNSAT, f"trial {trial}: {clauses}"
            else:
                assert result.status == SAT, f"trial {trial}: {clauses}"
                _check_model(clauses, result.model)

    def test_pigeonhole_unsat(self):
        cnf = _pigeonhole(4)
        result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        assert result.status == UNSAT
        assert result.conflicts > 0

    def test_pigeonhole_sat_when_pigeons_fit(self):
        # PHP with as many holes as pigeons is satisfiable.
        cnf = Cnf()
        var = {
            (p, h): cnf.new_var() for p in range(4) for h in range(4)
        }
        for p in range(4):
            cnf.add(*(var[p, h] for h in range(4)))
        for h in range(4):
            cnf.add_at_most_k([var[p, h] for p in range(4)], 1)
        result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        assert result.status == SAT
        _check_model(cnf.clauses, result.model)

    def test_conflict_budget_yields_unknown(self):
        cnf = _pigeonhole(7)
        result = CdclSolver(
            cnf.num_vars, cnf.clauses, max_conflicts=3
        ).solve()
        assert result.status == UNKNOWN
        assert result.conflicts >= 3

    def test_budget_large_enough_still_answers(self):
        cnf = _pigeonhole(3)
        result = CdclSolver(
            cnf.num_vars, cnf.clauses, max_conflicts=100_000
        ).solve()
        assert result.status == UNSAT

    def test_restarts_preserve_soundness(self):
        # Enough conflicts to force several geometric restarts.
        cnf = _pigeonhole(6)
        result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        assert result.status == UNSAT
        assert result.restarts > 0


class TestDecisionOrder:
    """The order heap decides exactly as a scan of every variable."""

    def test_random_formulas_search_like_the_scan(self):
        for num_vars, clauses in _random_formulas():
            _assert_same_search(num_vars, clauses)

    @pytest.mark.parametrize("holes", [4, 5, 6, 7])
    def test_pigeonhole_searches_like_the_scan(self, holes):
        cnf = _pigeonhole(holes)
        _assert_same_search(cnf.num_vars, cnf.clauses)

    def test_corpus_encodings_search_like_the_scan(self, corpus_encodings):
        for num_vars, clauses in corpus_encodings:
            _assert_same_search(num_vars, clauses)

    def test_activity_rescale_keeps_the_search(self, monkeypatch):
        """A low rescale threshold runs the heap rebuild on every few
        conflicts, which the real 1e100 never reaches in these tests."""
        monkeypatch.setattr(repro.exact.solver, "_ACTIVITY_RESCALE", 1e3)
        cnf = _pigeonhole(6)
        solver = CdclSolver(cnf.num_vars, [list(c) for c in cnf.clauses])
        result = solver.solve()
        assert result.status == UNSAT
        # Unscaled, the last bump alone would exceed the threshold.
        assert 0.95 ** -(result.conflicts - 2) > 1e3
        assert max(solver._activity) <= 1e3
        _assert_same_search(cnf.num_vars, cnf.clauses)
        for num_vars, clauses in _random_formulas():
            expected = _brute_force(num_vars, clauses)
            result = CdclSolver(num_vars, [list(c) for c in clauses]).solve()
            assert result.status == (UNSAT if expected is None else SAT)
            if expected is not None:
                _check_model(clauses, result.model)
            _assert_same_search(num_vars, clauses)


class TestCnfBuilder:
    def test_literal_validation(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(ValueError, match="names no allocated"):
            cnf.add(2)
        with pytest.raises(ValueError, match="names no allocated"):
            cnf.add(0)
        with pytest.raises(ValueError, match="names no allocated"):
            cnf.add(1, -2)

    def test_new_vars_are_contiguous(self):
        cnf = Cnf()
        first = cnf.new_var()
        block = cnf.new_vars(3)
        assert list(block) == [first + 1, first + 2, first + 3]
        assert list(cnf.new_vars(0)) == []
        assert cnf.new_var() == first + 4 == cnf.num_vars

    def test_corpus_encodings_keep_the_clause_contract(
        self, corpus_encodings
    ):
        """The solver trusts every clause: literals in ``1..num_vars``,
        no variable twice."""
        for num_vars, clauses in corpus_encodings:
            for clause in clauses:
                names = [abs(lit) for lit in clause]
                assert all(1 <= name <= num_vars for name in names), clause
                assert len(set(names)) == len(names), clause

    def test_at_most_k_negative_bound_rejected(self):
        cnf = Cnf()
        v = cnf.new_var()
        with pytest.raises(ValueError, match="negative cardinality"):
            cnf.add_at_most_k([v], -1)

    def test_at_most_zero_forces_all_false(self):
        cnf = Cnf()
        vars_ = [cnf.new_var() for _ in range(3)]
        cnf.add_at_most_k(vars_, 0)
        result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
        assert result.status == SAT
        assert not any(result[v] for v in vars_)

    def test_at_most_k_vacuous_adds_nothing(self):
        cnf = Cnf()
        vars_ = [cnf.new_var() for _ in range(3)]
        cnf.add_at_most_k(vars_, 3)
        assert cnf.clauses == []

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 1)])
    def test_at_most_k_counts_exactly(self, n, k):
        """Every assignment of the base vars: the encoding (projected onto
        the base vars) accepts iff at most k are true."""
        cnf = Cnf()
        base = [cnf.new_var() for _ in range(n)]
        cnf.add_at_most_k(base, k)
        for bits in itertools.product((False, True), repeat=n):
            fixed = [v if b else -v for v, b in zip(base, bits)]
            result = CdclSolver(
                cnf.num_vars, cnf.clauses + [[lit] for lit in fixed]
            ).solve()
            expected = sum(bits) <= k
            assert (result.status == SAT) == expected, (bits, k)

    def test_at_most_k_weights_duplicates(self):
        """A literal listed twice counts twice — the weighted-resource
        idiom the modulo encoder relies on."""
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_at_most_k([a, a, b], 2)
        # a alone costs 2: fine.  a and b cost 3: rejected.
        assert _status(cnf, [a], [-b]) == SAT
        assert _status(cnf, [a], [b]) == UNSAT

    def test_at_most_k_accepts_negated_literals(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_at_most_k([-a, -b], 1)
        # Both false means both negated literals true: sum 2 > 1.
        assert _status(cnf, [-a], [-b]) == UNSAT
        assert _status(cnf, [a], [-b]) == SAT


class TestSolveResult:
    def test_defaults(self):
        result = SolveResult(status=UNSAT)
        assert result.model == {}
        assert result.conflicts == 0
