"""Differential tests for the modulo reservation table.

:class:`ModuloReservationTable` (per resource name, the units still free
in each modulo row, checked against a pattern's own sorted ``cells``)
must be behaviourally identical to the test-side
:class:`reference.DictModuloReservationTable`, which sums each placement
into one ``{resource: usage}`` dict per row: the same placements and
refusals, ``place`` raising exactly where the reference's does, and
``place_earliest`` answering and placing as the reference's
``earliest_fit`` followed by ``place`` does.  A hypothesis test runs
random interleavings of both placements against both tables side by
side; the machines include multi-capacity resources, so counts above one
are exercised too.  Patterns may be longer than the interval, so two
cells of one unit can share a modulo row.  A second oracle,
:func:`~repro.audit.oracle.audit_modulo_resources`, re-derives the rows
from the placements alone, so the reference cannot share a defect with
the table unnoticed.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.audit.oracle import audit_modulo_resources
from repro.core.mrt import ModuloReservationTable, ResourceGrid
from repro.core.schedule import KernelSchedule
from repro.deps.graph import DepGraph, DepNode
from repro.machine import WARP, make_custom
from repro.machine.resources import ReservationTable, ResourceUse

from reference import DictModuloReservationTable

# Two alus and two mem ports: patterns over these can share a row.
MULTI = make_custom(
    "multi", {"alu": 2, "fadd": 1, "fmul": 1, "mem": 2, "seq": 1}
)

_RESOURCES = ("alu", "fadd", "fmul", "mem", "seq")


def _tables_equal(packed, reference, s):
    for row in range(s):
        for resource in _RESOURCES:
            assert packed.usage(row, resource) == reference.usage(
                row, resource
            ), (row, resource)


def _audit(machine, s, placed):
    """The resource audit of ``placed`` ``(reservation, time)`` pairs, read
    as one kernel at interval ``s`` (the audit adds the loop-back branch
    at row ``s - 1`` itself)."""
    graph = DepGraph()
    times = {}
    for index, (reservation, time) in enumerate(placed):
        graph.add_node(DepNode(index, reservation, None))
        times[index] = time
    return audit_modulo_resources(
        KernelSchedule(graph, machine, s, times, mii=None)
    )


@st.composite
def _reservation(draw):
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.sampled_from(_RESOURCES),
                st.integers(min_value=1, max_value=2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return ReservationTable(
        ResourceUse(time, resource, amount)
        for time, resource, amount in cells
    )


@st.composite
def _script(draw):
    """A random interleaving of MRT placements.

    Each step is (op, reservation, time, window): op 0 = place at exactly
    ``time`` (raising on a conflict), 1 = place_earliest from ``time`` on,
    over at most ``window`` further slots when ``window`` is not None.
    """
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                _reservation(),
                st.integers(min_value=0, max_value=12),
                st.none() | st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return steps


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(
    machine=st.sampled_from([WARP, MULTI]),
    s=st.integers(min_value=1, max_value=6),
    script=_script(),
)
# Two alu cells one interval apart, on a machine with one alu.
@example(
    machine=WARP,
    s=1,
    script=[(
        1,
        ReservationTable([ResourceUse(0, "alu", 1), ResourceUse(1, "alu", 1)]),
        0,
        None,
    )],
)
def test_packed_matches_dict_reference(machine, s, script):
    packed = ModuloReservationTable(machine, s)
    reference = DictModuloReservationTable(machine, s)
    # As the pipeliner does, pre-place the loop-back branch in the last row.
    packed.place(machine.branch_reservation, s - 1)
    reference.place(machine.branch_reservation, s - 1)
    placed = []
    for op, reservation, time, window in script:
        if op == 0:
            if reference.fits(reservation, time):
                packed.place(reservation, time)
                reference.place(reservation, time)
                placed.append((reservation, time))
            else:
                with pytest.raises(ValueError):
                    packed.place(reservation, time)
        else:
            latest = None if window is None else time + window
            expected = reference.earliest_fit(reservation, time, latest)
            if expected is not None:
                reference.place(reservation, expected)
                placed.append((reservation, expected))
            assert packed.place_earliest(reservation, time, latest) == expected
        _tables_equal(packed, reference, s)
        assert _audit(machine, s, placed) == []


def test_cells_sharing_a_row_are_summed():
    # Two alu cells s apart land in one row of WARP's single alu.
    pattern = ReservationTable(
        [ResourceUse(0, "alu", 1), ResourceUse(2, "alu", 1)]
    )
    mrt = ModuloReservationTable(WARP, 2)
    assert mrt.place_earliest(pattern, 0) is None
    with pytest.raises(ValueError):
        mrt.place(pattern, 1)
    assert mrt.usage(0, "alu") == mrt.usage(1, "alu") == 0
    assert not DictModuloReservationTable(WARP, 2).fits(pattern, 0)
    # With two alus the summed row fits, and holds both cells.
    multi = ModuloReservationTable(MULTI, 2)
    assert multi.place_earliest(pattern, 0) == 0
    assert multi.usage(0, "alu") == 2
    assert multi.place_earliest(ReservationTable.single("alu"), 0) == 1


def test_refused_place_leaves_table_untouched():
    # All-or-nothing: a place whose later cell conflicts must not have
    # already claimed the earlier ones.
    mrt = ModuloReservationTable(WARP, 2)
    mrt.place(ReservationTable.single("mem"), 1)
    overreach = ReservationTable(
        [ResourceUse(0, "alu", 1), ResourceUse(1, "mem", 1)]
    )
    with pytest.raises(ValueError):
        mrt.place(overreach, 0)
    assert mrt.usage(0, "alu") == 0
    assert mrt.place_earliest(ReservationTable.single("alu"), 0, 0) == 0


class TestUnknownResource:
    """Both tables check a pattern's cells by name against the machine's
    resources: a cell naming a resource the machine lacks raises
    ``KeyError`` and records nothing."""

    PATTERN = ReservationTable(
        [ResourceUse(0, "alu", 1), ResourceUse(1, "vector", 1)]
    )

    def test_modulo_table_raises(self):
        mrt = ModuloReservationTable(WARP, 3)
        with pytest.raises(KeyError):
            mrt.place_earliest(self.PATTERN, 0)
        with pytest.raises(KeyError):
            mrt.place(self.PATTERN, 1)
        assert all(mrt.usage(row, "alu") == 0 for row in range(3))

    def test_modulo_table_raises_where_nothing_fits(self):
        # Every row's alu is taken, so no slot is ever probed past the
        # first cell; the unknown resource is still refused.
        mrt = ModuloReservationTable(WARP, 1)
        mrt.place(ReservationTable.single("alu"), 0)
        with pytest.raises(KeyError):
            mrt.place_earliest(self.PATTERN, 0)
        with pytest.raises(KeyError):
            mrt.place_earliest(self.PATTERN, 4, 3)

    def test_resource_grid_raises(self):
        grid = ResourceGrid(WARP)
        with pytest.raises(KeyError):
            grid.place_earliest(self.PATTERN, 0)
        assert grid.place_earliest(ReservationTable.single("alu"), 0) == 0


# ``out[i] := a[i] + b[i]`` under a condition: reduced without
# serialisation, the IF node holds ``mem`` at offsets 1, 2 and 13, so at
# the MII of 4 two of its cells share row 1.
OVERLAPPED_IF = """
program probe;
var a, b, c, out: array[64] of float;
begin
  for i := 0 to 49 do
    if c[i] > 0.5 then
      out[i] := a[i] + b[i];
end.
"""


@pytest.mark.parametrize("backend", ["heuristic", "exact"])
def test_overlapped_if_kernel_audits_clean(backend):
    from repro.audit.differential import audit_program
    from repro.batch.driver import compile_one
    from repro.core.compile import CompilerPolicy

    policy = CompilerPolicy(serialize_ifs=False, scheduler_backend=backend)
    assert audit_program("probe", OVERLAPPED_IF, WARP, policy) == []
    (loop,) = compile_one("probe", OVERLAPPED_IF, WARP, policy).compiled.loops
    assert (loop.mii, loop.ii) == (4, 5)
