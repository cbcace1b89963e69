"""A semi-axis model known only through the protocol members.

``Forwarding`` wraps a model of any family and exposes nothing but the
``SemiAxisModel`` members; it is not a subclass of any family.  It counts
the axis reads and tail sums asked of it, so a test can bound the work an
entry point does.  Reads a wrapped model makes of itself, inside its own
``last_exceeding``, are not counted.
"""


class Forwarding:
    """Forwards the protocol members to a model, counting ``axis`` and
    ``tail_power_sum`` calls."""

    __slots__ = ("_model", "axis_calls", "tail_calls")

    def __init__(self, model):
        self._model = model
        self.axis_calls = 0
        self.tail_calls = 0

    def __repr__(self):
        return f"Forwarding({self._model!r})"

    @property
    def decay_index(self):
        return self._model.decay_index

    @property
    def length(self):
        return self._model.length

    @property
    def rising_head(self):
        return self._model.rising_head

    def axis(self, n):
        self.axis_calls += 1
        return self._model.axis(n)

    def monotone_start(self, e=0.0):
        return self._model.monotone_start(e)

    def last_exceeding(self, start, t):
        return self._model.last_exceeding(start, t)

    def tail_power_sum(self, d, theta):
        self.tail_calls += 1
        return self._model.tail_power_sum(d, theta)

    def log_product(self, d):
        return self._model.log_product(d)
