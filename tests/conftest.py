import pytest

from fifolab import EventLog


@pytest.fixture
def event_log():
    """Build an :class:`EventLog` from ``(step, kind, arrival index)`` triples,
    for traces that ``run`` never produces."""

    def build(triples):
        log = EventLog([], [], [])
        for step, kind, arrival in triples:
            log.steps.append(step)
            log.kinds.append(kind)
            log.arrivals.append(arrival)
        return log

    return build
