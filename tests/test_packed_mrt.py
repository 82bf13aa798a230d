"""Differential tests for the integer-packed modulo reservation table.

:class:`ModuloReservationTable` (bitmasks + flat counts over interned
resources) must be behaviourally identical to the test-side
:class:`reference.DictModuloReservationTable`, the name-keyed table it
replaced — same fits verdicts, same placements, same all-or-nothing remove
validation, same earliest-fit answers.  A hypothesis driver runs random
interleavings of the full operation set against both side by side; the
machines include multi-capacity resources so both the pure-bitmask and
the counter paths are exercised.

The packed hot path's observability counter (``mrt_bitmask_fast_path``)
gets counter-based regression tests here too: if a refactor silently
drops off the fast path, the counter pins it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mrt import ModuloReservationTable
from repro.machine import WARP, make_custom
from repro.machine.resources import ReservationTable, ResourceUse
from repro.obs import trace as obs

from reference import DictModuloReservationTable

# Two alus and two mem ports: patterns over these exercise the
# counter-compare path, everything else the unit-capacity bitmask path.
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
    """A random interleaving of MRT operations.

    Each step is (op, reservation, time): op 0 = fits, 1 = place (only if
    it fits), 2 = remove (may target a never-placed pattern, exercising
    the all-or-nothing rejection), 3 = earliest_fit.
    """
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                _reservation(),
                st.integers(min_value=0, max_value=12),
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
def test_packed_matches_dict_reference(machine, s, script):
    packed = ModuloReservationTable(machine, s)
    reference = DictModuloReservationTable(machine, s)
    for op, reservation, time in script:
        if op == 0:
            assert packed.fits(reservation, time) == reference.fits(
                reservation, time
            )
        elif op == 1:
            if reference.fits(reservation, time):
                packed.place(reservation, time)
                reference.place(reservation, time)
            else:
                with pytest.raises(ValueError):
                    packed.place(reservation, time)
        elif op == 2:
            failed = 0
            try:
                reference.remove(reservation, time)
            except ValueError:
                failed += 1
            try:
                packed.remove(reservation, time)
            except ValueError:
                failed += 1
            assert failed in (0, 2), "remove verdicts diverged"
        else:
            assert packed.earliest_fit(
                reservation, time
            ) == reference.earliest_fit(reservation, time)
        _tables_equal(packed, reference, s)


def test_failed_remove_leaves_table_untouched():
    # All-or-nothing: a remove whose later cells are uncovered must not
    # have already decremented the earlier ones.
    mrt = ModuloReservationTable(WARP, 2)
    placed = ReservationTable.single("alu")
    mrt.place(placed, 0)
    overreach = ReservationTable(
        [ResourceUse(0, "alu", 1), ResourceUse(1, "mem", 1)]
    )
    with pytest.raises(ValueError):
        mrt.remove(overreach, 0)
    assert mrt.usage(0, "alu") == 1
    # The bitmask view must agree: the row is still occupied.
    assert not mrt.fits(placed, 0)
    mrt.remove(placed, 0)
    assert mrt.fits(placed, 0)


def test_duplicate_cells_sum_before_remove_validation():
    # Two entries on the same (row, resource) must be validated as their
    # sum: usage 1 cannot cover a pattern that removes 1 twice.
    mrt = ModuloReservationTable(MULTI, 1)
    mrt.place(ReservationTable.single("alu"), 0)
    doubled = ReservationTable(
        [ResourceUse(0, "alu", 1), ResourceUse(1, "alu", 1)]
    )
    with pytest.raises(ValueError):
        mrt.remove(doubled, 0)
    assert mrt.usage(0, "alu") == 1


class TestPackedCounters:
    """The packed hot paths announce themselves through the ambient
    observer; these regression tests fail if a refactor silently falls
    back to the slow path."""

    def test_earliest_fit_counts_bitmask_fast_path(self):
        # WARP is all unit-capacity, so every earliest_fit should take
        # the bitmask scan — one count per call, not per probed slot.
        mrt = ModuloReservationTable(WARP, 4)
        pattern = ReservationTable.single("alu")
        with obs.observe() as observer:
            for _ in range(5):
                mrt.earliest_fit(pattern, 0)
        assert observer.counters["mrt_bitmask_fast_path"] == 5

    def test_multi_capacity_patterns_skip_the_bitmask_path(self):
        mrt = ModuloReservationTable(MULTI, 4)
        pattern = ReservationTable.single("alu")  # alu has 2 units here
        with obs.observe() as observer:
            assert mrt.earliest_fit(pattern, 0) == 0
        assert "mrt_bitmask_fast_path" not in observer.counters
