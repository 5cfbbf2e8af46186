"""A fixed reference loop that measures how fast the machine runs right now.

Shared hosts change speed by more than half within seconds, which moves
every wall time in step.  The benchmark times this loop between jobs and
reports a job's time as `seconds * REFERENCE_S / reference`: its wall time
on a machine where the loop takes exactly REFERENCE_S.  The loop is plain
interpreted Python of the program's kind (small-integer rational arithmetic,
tuple keys, dict updates, calls); it imports nothing, so running it before
the program's import changes no import cost.
"""

import time

REFERENCE_S = 0.01  # the defined duration of one reference loop
ROUNDS = 6000


def _reduce(num: int, den: int):
    a, b = num, den
    while b:
        a, b = b, a % b
    return num // a, den // a


def reference_loop(rounds: int = ROUNDS) -> int:
    table = {}
    num, den = 1, 3
    for i in range(rounds):
        num, den = _reduce(num * (i % 5 + 1) * (i + 1) + den * (i % 7 + 2),
                           den * (i % 7 + 2) * (i + 1))
        num, den = num % 10007, den % 10009 + 1
        key = (i % 97, num % 7)
        table[key] = table.get(key, 0) + num - den
    return len(table)


def reference_seconds() -> float:
    """Wall time of one reference loop now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def normalized(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference
