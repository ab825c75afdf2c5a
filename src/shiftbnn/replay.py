"""``GenerationLedger``: three methods that do nothing.

Nothing in the package calls them; the trainer keeps no record of its
draws, since each layer's weight count says how many to shift back.  The
benchmark's tracer (perfbench/tracer.py) wraps them by name.
"""


class GenerationLedger:
    def record_segment(self, record) -> None:
        pass

    def layer_segment(self, layer_id: int, sample_id: int) -> None:
        pass

    def clear(self) -> None:
        pass
