"""Brute-force admission oracle, independent of the broker's search.

Feasibility is recomputed from a raw snapshot of calendar entries by testing
every critical instant in the request window; placements are enumerated as
explicit node subsets.
"""

from itertools import combinations


def overlaps(entry_start, entry_end, win_start, win_end):
    return entry_end > win_start and entry_start < win_end


def node_feasible(entries, window, demand, limit):
    """entries: list of (start, end, demand_vector) already reserved on the node."""
    win_start, win_end = window
    instants = [win_start]
    for start, end, _d in entries:
        if overlaps(start, end, win_start, win_end):
            instants.append(max(start, win_start))
            if win_start < end < win_end:
                instants.append(end)
    for t in instants:
        total = demand
        for start, end, d in entries:
            if start <= t < end:
                total = total + d
        if total.exceeds_any(limit):
            return False
    return True


def best_available_placement(per_node, calendar_snapshot, request):
    """per_node: node_id -> (availability, headroom). Returns (nodes, availability)
    of the best feasible placement, or (None, None)."""
    feasible = [
        node_id
        for node_id in sorted(per_node)
        if node_feasible(
            calendar_snapshot.get(node_id, []),
            request.window,
            request.demand,
            per_node[node_id][1],
        )
    ]
    if len(feasible) < request.element_count:
        return None, None
    best_nodes, best_avail = None, -1.0
    for subset in combinations(feasible, request.element_count):
        q = 1.0
        for node_id in subset:
            q *= 1.0 - per_node[node_id][0]
        avail = 1.0 - q
        if avail > best_avail:
            best_nodes, best_avail = subset, avail
    return best_nodes, best_avail
