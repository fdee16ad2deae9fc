"""Unit tests for Store, Semaphore, and BusyTracker."""

import pytest

from repro.errors import SimulationError
from repro.simulator import BusyTracker, Environment, Semaphore, Store


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc():
            yield store.put("a")
            item = yield store.get()
            return item

        assert env.run(until=env.process(proc())) == "a"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (item, env.now)

        def producer():
            yield env.timeout(3.0)
            yield store.put("x")

        consumer_proc = env.process(consumer())
        env.process(producer())
        assert env.run(until=consumer_proc) == ("x", 3.0)

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        def producer():
            for item in ("a", "b", "c"):
                yield store.put(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == ["a", "b", "c"]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer():
            yield env.timeout(5.0)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert ("put-a", 0.0) in log
        assert ("put-b", 5.0) in log  # blocked until the consumer drained one

    def test_close_abandons_producers_that_would_wait_forever(self):
        """Once the consumer is gone, a producer blocked on a put, one
        that blocks later and a process waiting on a blocked one are
        abandoned: nothing more is simulated and none of them fires."""
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(name, delay):
            yield env.timeout(delay)
            yield store.put(name)
            log.append(name)

        def waiter(process):
            yield process
            log.append("waiter")

        early = env.process(producer("early", 1.0))
        waiting = env.process(waiter(early))
        env.timeout(2.0).add_callback(lambda _: store.close())
        late = env.process(producer("late", 3.0))
        store.put("first")
        env.run()
        assert log == [] and env.now == 3.0
        assert list(store.items) == ["first"]
        for process in (early, waiting, late):
            assert not process.triggered and process.target is None
            assert process.callbacks == []

    def test_closed_store_takes_items_while_it_has_room(self):
        env = Environment()
        store = Store(env, capacity=2)
        store.close()

        def producer():
            yield store.put("a")
            return "done"

        assert env.run(until=env.process(producer())) == "done"
        assert list(store.items) == ["a"]

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestSemaphore:
    def test_admits_up_to_units(self):
        env = Environment()
        sem = Semaphore(env, 2)
        starts = []

        def worker(tag):
            yield sem.acquire()
            starts.append((tag, env.now))
            yield env.timeout(10.0)
            sem.release()

        for tag in range(3):
            env.process(worker(tag))
        env.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 10.0)]

    def test_queue_length_visible(self):
        env = Environment()
        sem = Semaphore(env, 1)

        def worker():
            yield sem.acquire()
            yield env.timeout(1.0)
            sem.release()

        for _ in range(4):
            env.process(worker())
        env.run(until=0.5)
        assert sem.queue_length == 3
        assert sem.in_use == 1
        env.run()
        assert sem.queue_length == 0
        assert sem.in_use == 0

    def test_release_without_acquire_rejected(self):
        env = Environment()
        sem = Semaphore(env, 1)
        with pytest.raises(SimulationError):
            sem.release()


class TestBusyTracker:
    def test_busy_time_accumulates(self):
        env = Environment()
        tracker = BusyTracker(env, units=2)

        def proc():
            tracker.add(1)
            yield env.timeout(10.0)
            tracker.add(1)
            yield env.timeout(10.0)
            tracker.remove(2)
            yield env.timeout(10.0)

        env.run(until=env.process(proc()))
        assert tracker.busy_time() == pytest.approx(10.0 + 20.0)
        assert tracker.utilization() == pytest.approx(30.0 / 60.0)

    def test_windowed_utilization(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)

        def proc():
            yield env.timeout(10.0)
            tracker.add(1)
            yield env.timeout(10.0)
            tracker.remove(1)
            yield env.timeout(10.0)

        env.run(until=env.process(proc()))
        assert tracker.utilization(0.0, 10.0) == pytest.approx(0.0)
        assert tracker.utilization(10.0, 20.0) == pytest.approx(1.0)
        assert tracker.utilization(5.0, 15.0) == pytest.approx(0.5)

    def test_tail_segment_counted(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)
        tracker.add(1)
        env.timeout(5.0)
        env.run()
        assert tracker.busy_time() == pytest.approx(5.0)

    def test_negative_busy_rejected(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)
        with pytest.raises(SimulationError):
            tracker.remove(1)
