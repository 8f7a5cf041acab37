"""Reference work for scaling times to one CPU speed.

The speed of a shared virtual CPU drifts by a fifth and more over tens of
seconds, for every kind of work alike.  The benchmark times this fixed piece
of pure Python, which never touches the package, next to each measurement,
and scales the measurement by ``REFERENCE_S`` over the reference time.
"""

# the time reference_work takes at the speed scaled times refer to: its
# median on the 2-vCPU virtual machine the first baseline was recorded on
REFERENCE_S = 0.003


def reference_work():
    """About 3 ms of dict, tuple, integer and sort operations, the mix the
    word layer spends its time on."""
    counts: dict[tuple[int, int], int] = {}
    keys = []
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * i
        keys.append(key)
    return sorted(counts.items()), len(set(keys))
