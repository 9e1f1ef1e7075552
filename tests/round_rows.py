"""Round-table rows as tuples, shared by the automaton and simulator tests."""

import numpy as np


def outcome_rows(auto, rows):
    """Each row of ``auto.round_outcomes(rows)`` as ``(end projection,
    ticks, idle ticks per sender, deadlocked)``, the tuple the plain tick
    rule gives, with the receiver as a plain tuple."""
    ends, receiver, ticks, idle, deadlocked = auto.round_outcomes(np.array(rows))
    return [((tuple(map(tuple, ends[k].tolist())), tuple(receiver[k].tolist())),
             int(ticks[k]), tuple(idle[k].tolist()), bool(deadlocked[k]))
            for k in range(len(rows))]
