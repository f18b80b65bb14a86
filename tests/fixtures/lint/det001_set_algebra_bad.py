"""DET001 fixture: iterating set algebra.

``transition_order`` is ``DynamicScheduler._apply``'s loop: the union's
order follows the hash seed, so the processes it starts run in a
seed-dependent order.
"""


def transition_order(adds_by_executor, deferred_by_executor):
    order = []
    for name in set(adds_by_executor) | set(deferred_by_executor):
        order.append(name)
    return order


def survivors(names, victim):
    return list(set(names) - {victim})


def sorted_union_is_fine(left, right):
    return sorted(set(left) | set(right))
