"""A naive event queue: the oracle for the production ``EventQueue``.

Every pending entry sits in one list; ``pop`` sorts it by
``(time, priority, seq)`` and takes the head.  No heap, no lazy
deletion, no counters — so nothing here can drift the way the
production queue's O(1) bookkeeping could.
"""


class RefEvent:
    def __init__(self, time, priority, seq, label, queue):
        self.time, self.priority, self.seq, self.label = time, priority, seq, label
        self._queue = queue
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self._leave()

    def _leave(self):
        if self._queue is not None:
            self._queue.pending.remove(self)
            self._queue = None


class RefQueue:
    def __init__(self):
        self.pending = []
        self.seq = 0

    def __len__(self):
        return len(self.pending)

    def push(self, time, priority=0, label=""):
        ev = RefEvent(time, priority, self.seq, label, self)
        self.seq += 1
        self.pending.append(ev)
        return ev

    def _head(self):
        return min(self.pending, key=lambda e: (e.time, e.priority, e.seq), default=None)

    def pop(self):
        ev = self._head()
        if ev is not None:
            ev._leave()
        return ev

    def peek_time(self):
        ev = self._head()
        return None if ev is None else ev.time

    def clear(self):
        for ev in list(self.pending):
            ev.cancel()
