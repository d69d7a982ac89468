"""Unit tests for the array-backed ready queue (vectorized scheduling core)."""

import numpy as np
import pytest

from repro.cluster import Pool, simulate_cluster
from repro.core.lut import ModelInfoLUT
from repro.errors import SchedulingError
from repro.schedulers.base import make_scheduler
from repro.sim.ready_queue import KNOWN_COLUMNS, ReadyQueue, np_lexmin
from repro.sim.workload import WorkloadSpec, iter_workload

from conftest import make_request


def rq(toy_lut, columns=("arrival", "deadline", "est_isolated", "est_remaining",
                         "true_remaining", "last_run_end", "executed_time",
                         "priority", "true_isolated")):
    return ReadyQueue(toy_lut, columns=columns, capacity=4)


class TestBasics:
    def test_unknown_column_rejected(self, toy_lut):
        with pytest.raises(SchedulingError, match="unknown ready-queue column"):
            ReadyQueue(toy_lut, columns=("bogus",))

    def test_sequence_protocol(self, toy_lut):
        q = rq(toy_lut)
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(3)]
        for r in reqs:
            q.add(r)
        assert len(q) == 3
        assert list(q) == reqs
        assert q[0] is reqs[0]
        assert all(r in q for r in reqs)
        # membership is identity-based: an equal-looking stranger is absent
        assert make_request(rid=1, arrival=1.0) not in q

    def test_columns_mirror_request_state(self, toy_lut):
        q = rq(toy_lut)
        r = make_request(rid=7, arrival=2.0, slo=3.0)
        i = q.add(r)
        assert q.np_rid[i] == 7 and q.ls_rid[i] == 7
        assert q.np_arrival[i] == 2.0
        assert q.np_deadline[i] == r.deadline
        assert q.np_true_isolated[i] == r.isolated_latency
        assert q.np_true_remaining[i] == r.true_remaining
        entry = r.lut_entry(toy_lut)
        assert q.np_est_isolated[i] == entry.avg_total_latency
        assert q.np_est_remaining[i] == entry.remaining_suffix_t[0]
        # numpy and list mirrors agree
        assert q.ls_est_remaining[i] == q.np_est_remaining[i]


class TestSwapRemove:
    def test_swap_remove_moves_tail_into_hole(self, toy_lut):
        q = rq(toy_lut)
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(4)]
        for r in reqs:
            q.add(r)
        q.remove(reqs[1])
        assert len(q) == 3
        assert reqs[1] not in q
        # The tail (rid 3) took slot 1 in every column.
        assert q[1] is reqs[3]
        assert q.np_rid[1] == 3 and q.ls_rid[1] == 3
        assert q.np_arrival[1] == 3.0 and q.ls_arrival[1] == 3.0
        assert q.index_of(reqs[3]) == 1
        # Remaining entries stay coherent.
        for r in (reqs[0], reqs[2], reqs[3]):
            i = q.index_of(r)
            assert q.np_rid[i] == r.rid
            assert q.np_arrival[i] == r.arrival

    def test_remove_absent_request_rejected(self, toy_lut):
        q = rq(toy_lut)
        q.add(make_request(rid=0))
        with pytest.raises(SchedulingError, match="not in the ready queue"):
            q.remove(make_request(rid=5))

    def test_growth_beyond_initial_capacity(self, toy_lut):
        q = rq(toy_lut)  # capacity 4
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(20)]
        for r in reqs:
            q.add(r)
        assert len(q) == 20
        for r in reqs:
            i = q.index_of(r)
            assert q.np_rid[i] == r.rid
            assert q.ls_arrival[i] == r.arrival


class TestIncrementalUpdate:
    def test_update_progress_refreshes_progress_columns(self, toy_lut):
        q = rq(toy_lut)
        r = make_request(rid=0, latencies=(0.001, 0.002), sparsities=(0.5, 0.5))
        i = q.add(r)
        r.next_layer = 1
        r.executed_time = 0.001
        r.last_run_end = 0.5
        q.update_progress(r)
        entry = r.lut_entry(toy_lut)
        assert q.np_est_remaining[i] == entry.remaining_suffix_t[1]
        assert q.np_true_remaining[i] == r.true_remaining
        assert q.np_last_run_end[i] == 0.5 and q.ls_last_run_end[i] == 0.5
        assert q.np_executed_time[i] == 0.001

    def test_update_progress_ignores_absent_request(self, toy_lut):
        q = rq(toy_lut)
        q.update_progress(make_request(rid=9))  # no-op, no error


class TestAux:
    def test_aux_default_and_point_writes(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 1.5)
        a = q.add(make_request(rid=0))
        b = q.add(make_request(rid=1))
        assert q.aux_list("tokens") == [1.5, 1.5]
        q.aux_set("tokens", b, 9.0)
        assert q.aux_np("tokens")[b] == 9.0
        assert q.aux_list("tokens")[a] == 1.5

    def test_aux_vector_write_syncs_mirror_lazily(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        for i in range(3):
            q.add(make_request(rid=i))
        arr = q.aux_np_writable("tokens")
        arr[:3] += 2.0
        assert q.aux_list("tokens") == [2.0, 2.0, 2.0]

    def test_parked_row_keeps_aux_across_park_and_unpark(self, toy_lut):
        # Multi-accelerator engines park a running request's row and un-park
        # it at the block boundary; scheduler aux state must survive.
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        r = make_request(rid=3)
        i = q.add(r)
        q.aux_set("tokens", i, 7.25)
        q.remove(r, requeue=True)
        assert r not in q
        j = q.add(r)
        assert q.aux_list("tokens")[j] == 7.25

    def test_plain_remove_drops_the_row(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        r = make_request(rid=3)
        q.aux_set("tokens", q.add(r), 7.25)
        q.remove(r)  # completion: the row is dropped, not parked
        assert q.aux_list("tokens")[q.add(r)] == 0.0

    def test_forget_drops_the_parked_row(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        r = make_request(rid=3)
        q.aux_set("tokens", q.add(r), 4.0)
        q.remove(r, requeue=True)
        q.forget(r.rid)
        assert q.aux_list("tokens")[q.add(r)] == 0.0


def assert_coherent(q):
    """Every row, live or parked, agrees across all of the queue's stores."""
    rows = len(q._requests)
    assert len(q.ls_rid) == rows and 0 <= len(q) <= rows
    assert len(q._pos) == rows
    for i, r in enumerate(q._requests):
        assert q._pos[r.rid] == i
        assert q.ls_rid[i] == q.np_rid[i] == r.rid
        for np_name, ls_name in q._col_attrs:
            assert len(getattr(q, ls_name)) == rows
            a, b = getattr(q, np_name)[i], getattr(q, ls_name)[i]
            assert a == b or (np.isnan(a) and np.isnan(b))
        for name in q._aux:
            assert q.aux_list(name)[i] == q.aux_np(name)[i]


class TestParkedRows:
    def test_parked_row_is_invisible(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(3)]
        stranger = make_request(rid=3, model="alexnet")  # no LUT entry
        for r in reqs + [stranger]:
            q.aux_set("tokens", q.add(r), 5.0)
        assert q.missing_entries == 1
        q.remove(reqs[1], requeue=True)
        q.remove(stranger, requeue=True)
        assert len(q) == 2
        assert list(q) == [q[0], q[1]] and set(q) == {reqs[0], reqs[2]}
        assert list(q[:]) == list(q) and q[-1] is q[1]
        with pytest.raises(IndexError):
            q[2]
        with pytest.raises(IndexError):
            q[-3]
        for parked in (reqs[1], stranger):
            assert parked not in q
            assert q.index_of(parked) == -1
        assert q.missing_entries == 0
        q.aux_set_for("tokens", reqs[1], 9.0)  # no-op while parked
        q.update_progress(reqs[1])  # likewise
        with pytest.raises(SchedulingError, match="not in the ready queue"):
            q.remove(reqs[1])
        assert_coherent(q)
        assert q.aux_list("tokens")[q.add(reqs[1])] == 5.0
        q.add(stranger)
        assert q.missing_entries == 1 and len(q) == 4
        assert_coherent(q)

    def test_adding_a_live_request_twice_is_rejected(self, toy_lut):
        q = rq(toy_lut)
        r = make_request(rid=0)
        q.add(r)
        with pytest.raises(SchedulingError, match="already in the ready queue"):
            q.add(r)

    def test_growth_while_parked_keeps_every_column(self, toy_lut):
        q = rq(toy_lut)  # capacity 4
        q.register_aux("tokens", 0.0)
        first = [make_request(rid=i, arrival=float(i), slo=1.0 + i) for i in range(3)]
        for r in first:
            q.aux_set("tokens", q.add(r), 10.0 + r.rid)
        before = {
            r.rid: {np_name: float(getattr(q, np_name)[q.index_of(r)])
                    for np_name, _ in q._col_attrs}
            for r in first
        }
        q.remove(first[0], requeue=True)
        q.remove(first[2], requeue=True)
        for i in range(3, 12):  # grows 4 -> 8 -> 16 with two rows parked
            q.add(make_request(rid=i, arrival=float(i)))
        assert q._cap == 16 and len(q) == 10
        assert_coherent(q)
        for r in (first[0], first[2]):
            i = q.add(r)
            assert q.aux_list("tokens")[i] == 10.0 + r.rid
            for np_name, value in before[r.rid].items():
                assert getattr(q, np_name)[i] == value
        assert_coherent(q)

    def test_vector_aux_write_keeps_parked_values(self, toy_lut):
        # PREMA's numpy path writes tokens[:len(queue)] and reads them back
        # through aux_list; the sync must not clobber parked rows.
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        reqs = [make_request(rid=i) for i in range(3)]
        for r in reqs:
            q.add(r)
        q.aux_set("tokens", q.index_of(reqs[0]), 5.0)
        q.remove(reqs[0], requeue=True)
        arr = q.aux_np_writable("tokens")
        arr[: len(q)] += 1.0
        tokens = q.aux_list("tokens")
        assert tokens[:2] == [1.0, 1.0] and tokens[2] == 5.0
        assert q.aux_list("tokens")[q.add(reqs[0])] == 5.0
        assert_coherent(q)

    def test_unpark_refreshes_progress_columns(self, toy_lut):
        q = rq(toy_lut)
        r = make_request(rid=0, latencies=(0.001, 0.002), sparsities=(0.5, 0.5))
        other = make_request(rid=1)
        q.add(r)
        q.add(other)
        entry = r.lut_entry(toy_lut)
        q.remove(r, requeue=True)
        r.next_layer = 1
        r.executed_time = 0.001
        r.last_run_end = 0.5
        i = q.add(r)
        assert q.np_est_remaining[i] == q.ls_est_remaining[i] == entry.remaining_suffix_t[1]
        assert q.np_last_run_end[i] == q.ls_last_run_end[i] == 0.5
        assert q.np_executed_time[i] == 0.001
        assert q.np_true_remaining[i] == r.true_remaining
        # Constant columns never left the row.
        assert q.np_deadline[i] == r.deadline
        assert q.np_est_isolated[i] == entry.avg_total_latency

    def test_permanent_remove_keeps_parked_rows(self, toy_lut):
        q = rq(toy_lut)
        reqs = [make_request(rid=i, arrival=float(i)) for i in range(5)]
        for r in reqs:
            q.add(r)
        q.remove(reqs[4], requeue=True)
        q.remove(reqs[0], requeue=True)
        q.remove(reqs[1])
        assert set(q) == {reqs[2], reqs[3]}
        assert len(q._requests) == 4
        assert_coherent(q)
        q.forget(reqs[4].rid)
        q.forget(reqs[2].rid)  # live rid: forget leaves it alone
        assert set(q) == {reqs[2], reqs[3]} and len(q._requests) == 3
        assert_coherent(q)

    def test_random_motions_stay_coherent(self, toy_lut):
        q = rq(toy_lut)
        q.register_aux("tokens", 0.0)
        rng = np.random.default_rng(0)
        live, parked, gone = [], [], []
        for step in range(400):
            op = rng.integers(5)
            if op == 0 or not (live or parked):
                r = make_request(rid=step, arrival=float(step))
                q.aux_set("tokens", q.add(r), float(step))
                live.append(r)
            elif op == 1 and live:
                r = live.pop(rng.integers(len(live)))
                q.remove(r, requeue=True)
                parked.append(r)
            elif op == 2 and parked:
                r = parked.pop(rng.integers(len(parked)))
                q.add(r)
                live.append(r)
            elif op == 3 and parked:
                r = parked.pop(rng.integers(len(parked)))
                q.forget(r.rid)
                gone.append(r)
            elif live:
                r = live.pop(rng.integers(len(live)))
                q.remove(r)
                gone.append(r)
            assert set(q) == set(live) and len(q) == len(live)
            assert len(q._requests) == len(live) + len(parked)
            assert_coherent(q)
            for r in live:
                assert q.aux_list("tokens")[q.index_of(r)] == float(r.rid)
            assert not any(r in q for r in parked + gone)

    def test_streaming_cluster_run_leaves_no_rows(self, toy_traces):
        # forget() drops each finished request's parked row, so a streamed
        # replay holds no per-request queue state once it ends.
        lut = ModelInfoLUT(toy_traces)
        spec = WorkloadSpec(arrival_rate=300.0, n_requests=400, seed=5)
        pools = [Pool("a", make_scheduler("dysta", lut), 3),
                 Pool("b", make_scheduler("prema", lut), 2, block_size=2)]
        result = simulate_cluster(iter_workload(toy_traces, spec), pools,
                                  router="jsq", retain_requests=False)
        assert result.num_completed == 400
        for pool in pools:
            assert isinstance(pool.queue, ReadyQueue)
            assert len(pool.queue) == 0
            assert pool.queue._requests == [] and pool.queue._pos == {}


class TestMissingEntries:
    def test_unknown_model_counts_as_missing(self, toy_lut):
        q = rq(toy_lut)
        known = make_request(rid=0)
        stranger = make_request(rid=1, model="alexnet")
        q.add(known)
        assert q.missing_entries == 0
        q.add(stranger)
        assert q.missing_entries == 1
        q.remove(stranger)
        assert q.missing_entries == 0


class TestLexmin:
    def test_primary_only(self):
        assert np_lexmin(np.array([3.0, 1.0, 2.0])) == 1

    def test_tie_breaks_through_columns(self):
        primary = np.array([1.0, 1.0, 1.0, 2.0])
        second = np.array([5.0, 4.0, 4.0, 0.0])
        third = np.array([9, 8, 7, 6])
        assert np_lexmin(primary, second, third) == 2

    def test_all_known_columns_constructible(self, toy_lut):
        q = ReadyQueue(toy_lut, columns=KNOWN_COLUMNS)
        q.add(make_request(rid=0))
        assert len(q) == 1
