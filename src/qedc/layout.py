"""Hardware mapping: VF2 subgraph-monomorphism layout search, a greedy
fallback placement, detection-aware SWAP routing, and ASAP scheduling."""
from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction, Register

PROTECTED_HOP_PENALTY = 1000
LOOKAHEAD = 3  # two-qubit gates that decide which end of a routed gate walks

logger = logging.getLogger(__name__)


class LayoutError(Exception):
    pass


@dataclass
class CouplingGraph:
    num_nodes: int
    edges: list[tuple[int, int]]

    def __post_init__(self):
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < self.num_nodes and 0 <= b < self.num_nodes):
                raise ValueError(f"edge ({a},{b}) outside [0,{self.num_nodes})")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        self._edge_set = seen
        self._adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for a, b in self.edges:
            self._adj[a].append(b)
            self._adj[b].append(a)
        for nbrs in self._adj:
            nbrs.sort()
        self._near = [frozenset(nbrs) for nbrs in self._adj]
        self._hops: list[list[int]] | None = None
        self._dist: np.ndarray | None = None

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= a < self.num_nodes and b in self._near[a]

    def neighbors(self, a: int) -> list[int]:
        return self._adj[a]

    def degree(self, a: int) -> int:
        return len(self._adj[a])

    def hop_counts(self) -> list[list[int]]:
        """All-pairs shortest-path hop counts (BFS), one list of Python ints
        per source node; -1 when disconnected.  Built on the first call and
        kept on the graph; routing and scoring read single entries, which
        lists give faster than numpy scalars."""
        if self._hops is None:
            self._hops = []
            for src in range(self.num_nodes):
                d = [-1] * self.num_nodes
                d[src] = 0
                queue = [src]
                head = 0
                while head < len(queue):
                    u = queue[head]
                    head += 1
                    for v in self._adj[u]:
                        if d[v] < 0:
                            d[v] = d[u] + 1
                            queue.append(v)
                self._hops.append(d)
        return self._hops

    def distances(self) -> np.ndarray:
        """`hop_counts` as an (n, n) int array, for scoring many nodes at once."""
        if self._dist is None:
            self._dist = np.array(self.hop_counts(), dtype=np.int64).reshape(self.num_nodes, self.num_nodes)
        return self._dist

    def to_dict(self) -> dict:
        return {"num_qubits": self.num_nodes, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, d: dict) -> "CouplingGraph":
        return cls(int(d["num_qubits"]), [tuple(e) for e in d["edges"]])


def heavy_hex_127() -> CouplingGraph:
    """A 127-node heavy-hex lattice: seven qubit rows joined by bridge qubits,
    degree <= 3 throughout."""
    row_cols = [range(0, 14), *(range(0, 15) for _ in range(5)), range(1, 15)]
    edges: list[tuple[int, int]] = []
    row: dict[int, int] = {}  # column -> node, of the latest row
    n = 0
    for r, cols in enumerate(row_cols):
        above, row = row, {c: n + i for i, c in enumerate(cols)}
        n += len(cols)
        edges += [(row[c], row[c + 1]) for c in cols[:-1]]
        # the bridges up to the row above, numbered after this row
        bridges = {c: n + i for i, c in enumerate(range(0 if r % 2 else 2, 15, 4) if r else ())}
        edges += [(above[c], b) for c, b in bridges.items()]
        edges += [(b, row[c]) for c, b in bridges.items()]
        n += len(bridges)
    return CouplingGraph(n, edges)


@dataclass
class Layout:
    """Injective logical -> physical map with its distance score."""

    map: list[int]
    score: int

    def to_dict(self) -> dict:
        return {"map": list(self.map), "score": self.score}

    @classmethod
    def from_dict(cls, d: dict) -> "Layout":
        return cls(list(d["map"]), int(d["score"]))


def score_layout(ig: dict[tuple[int, int], int], mapping: list[int], cg: CouplingGraph) -> int:
    hops = cg.hop_counts()
    total = 0
    for (a, b), w in ig.items():
        d = hops[mapping[a]][mapping[b]]
        if d < 0:
            raise LayoutError("interaction spans disconnected coupling components")
        total += w * (d - 1)
    return total


def vf2_layouts(
    ig: dict[tuple[int, int], int],
    num_qubits: int,
    cg: CouplingGraph,
    limit: int = 10,
) -> list[Layout]:
    """Up to `limit` subgraph monomorphisms of the interaction graph into the
    coupling graph (every interaction edge on a coupling edge, score 0).

    Deterministic: pattern qubits are seated in descending interaction-degree
    order (ties by index) and physical candidates are tried in ascending
    index order.
    """
    if num_qubits > cg.num_nodes:
        return []
    adj: list[set[int]] = [set() for _ in range(num_qubits)]
    for a, b in ig:
        adj[a].add(b)
        adj[b].add(a)
    order = sorted(range(num_qubits), key=lambda q: (-len(adj[q]), q))
    results: list[Layout] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if len(results) >= limit:
            return True
        if pos == num_qubits:
            mapping = [assignment[q] for q in range(num_qubits)]
            results.append(Layout(mapping, 0))
            return len(results) >= limit
        q = order[pos]
        mapped_nbrs = [assignment[p] for p in adj[q] if p in assignment]
        if mapped_nbrs:
            candidates = sorted(set(cg.neighbors(mapped_nbrs[0])) - used)
        else:
            candidates = [p for p in range(cg.num_nodes) if p not in used]
        for phys in candidates:
            if cg.degree(phys) < len(adj[q]):
                continue
            if any(not cg.has_edge(phys, m) for m in mapped_nbrs):
                continue
            assignment[q] = phys
            used.add(phys)
            done = backtrack(pos + 1)
            del assignment[q]
            used.discard(phys)
            if done:
                return True
        return False

    backtrack(0)
    return results


def fallback_layout(ig: dict[tuple[int, int], int], num_qubits: int, cg: CouplingGraph) -> Layout:
    """Greedy placement by descending interaction degree, each qubit seated on
    the free physical node minimizing incremental score (the lowest index
    among ties), every node scored at once from the distance matrix."""
    if num_qubits > cg.num_nodes:
        raise LayoutError(f"{num_qubits} qubits exceed {cg.num_nodes} physical qubits")
    wdeg = [0] * num_qubits
    adj: dict[int, dict[int, int]] = {q: {} for q in range(num_qubits)}
    for (a, b), w in ig.items():
        wdeg[a] += w
        wdeg[b] += w
        adj[a][b] = w
        adj[b][a] = w
    order = sorted(range(num_qubits), key=lambda q: (-wdeg[q], q))
    dist = cg.distances()
    mapping: dict[int, int] = {}
    free = np.ones(cg.num_nodes, dtype=bool)
    for q in order:
        feasible, cost = free.copy(), np.zeros(cg.num_nodes, dtype=np.int64)
        for nbr, w in adj[q].items():
            if nbr in mapping:
                d = dist[:, mapping[nbr]]
                feasible &= d >= 0
                cost += w * (d - 1)
        nodes = np.flatnonzero(feasible)
        if not len(nodes):
            raise LayoutError("no feasible physical qubit (disconnected coupling graph)")
        mapping[q] = int(nodes[np.argmin(cost[nodes])])
        free[mapping[q]] = False
    full = [mapping[q] for q in range(num_qubits)]
    return Layout(full, score_layout(ig, full, cg))


# -- routing ------------------------------------------------------------------

@dataclass
class RoutingResult:
    circuit: Circuit
    initial_layout: list[int]       # logical -> physical at circuit start
    final_layout: list[int]         # logical -> physical after all SWAPs
    swap_count: int


def _protected_path(
    cg: CouplingGraph,
    src: int,
    dst: int,
    protected_phys: set[int],
) -> list[int]:
    """Cheapest src->dst path; hops landing on a protected qubit other than
    dst cost extra.  A node is pushed only when its cost strictly drops, so
    its parent is the node that last lowered it.  Nodes of equal cost pop in
    index order, so that parent is the lowest-index neighbour one step
    cheaper: where `_table_path` crosses no protected seat, this search
    returns that same path, and `route` runs it only where the table path
    does cross one."""
    INF = float("inf")
    best = [INF] * cg.num_nodes
    best[src] = 0
    parent = list(range(cg.num_nodes))
    heap = [(0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return path[::-1]
        if cost > best[node]:
            continue
        for nbr in cg.neighbors(node):
            step = 1
            if nbr != dst and nbr in protected_phys:
                step += PROTECTED_HOP_PENALTY
            nc = cost + step
            if nc < best[nbr]:
                best[nbr] = nc
                parent[nbr] = node
                heapq.heappush(heap, (nc, nbr))
    raise LayoutError(f"no path between physical qubits {src} and {dst}")


def _table_path(cg: CouplingGraph, src: int, dst: int) -> list[int]:
    """A shortest src->dst path read off `hop_counts`: from dst, each step
    back goes to the lowest-index neighbour one hop closer to src."""
    row, adj = cg.hop_counts()[src], cg._adj
    hops = row[dst]
    if hops < 0:
        raise LayoutError(f"no path between physical qubits {src} and {dst}")
    path = [src] * (hops + 1)
    node = dst
    for i in range(hops, 0, -1):
        path[i] = node
        for node in adj[node]:  # sorted, so the first one closer is the lowest
            if row[node] == i - 1:
                break
    return path


def _walk_cost(walk: list[int], phi: list[int], at: list[int | None],
               upcoming: list[tuple[int, int]], hops: list[list[int]]) -> int:
    """Summed distances of the `upcoming` logical pairs after the occupant of
    walk[0] swaps along `walk` to walk[-2]; each seat it passes shifts its
    occupant one step back."""
    moved = {at[v]: u for u, v in zip(walk, walk[1:-1])}
    moved[at[walk[0]]] = walk[-2]
    return sum([hops[moved.get(x, phi[x])][moved.get(y, phi[y])] for x, y in upcoming])


def route(
    circ: Circuit,
    layout: Layout,
    cg: CouplingGraph,
    protected: set[int] | None = None,
) -> RoutingResult:
    """Map onto the coupling graph, inserting SWAPs along shortest paths.

    `protected` holds logical qubit indices (detection ancillas); paths are
    penalized for passing over them so SWAPs bypass detection qubits whenever
    any alternative exists.  Each non-local gate takes one such path: the
    shortest path read off the hop table (`_table_path`: from the second
    operand's seat, step back to the lowest-index neighbour one hop closer
    to the first's), unless a seat strictly between its ends holds a
    protected qubit; only then does the penalized search (`_protected_path`)
    run.  Both give the same path wherever the table path crosses no
    protected seat.  Either end of the gate may walk the path towards the
    other.  The end that walks is the one that leaves the next `LOOKAHEAD`
    two-qubit gates the lower summed distance (the first operand on a tie);
    both walks make the same SWAPs over the same seats.  The output circuit
    acts on physical indices; the returned layouts relate logical to
    physical qubits before and after.  A layout that seats two qubits on one
    physical qubit, or one outside the graph, and a protected index outside
    the circuit raise `LayoutError`.

    With the ``qedc.layout`` logger at DEBUG, each call logs one JSON
    object: the non-local gates, the SWAPs, and the paths read off the table
    and searched.
    """
    protected = set(protected or ())
    if stray := sorted(q for q in protected if not 0 <= q < circ.num_qubits):
        raise LayoutError(f"protected qubits {stray} outside [0, {circ.num_qubits})")
    if len(layout.map) < circ.num_qubits:
        raise LayoutError("layout does not cover all circuit qubits")
    phi = list(layout.map)  # logical -> physical
    if len(set(phi)) < len(phi):
        raise LayoutError(f"layout map {phi} seats two qubits on one physical qubit")
    if phi and (min(phi) < 0 or max(phi) >= cg.num_nodes):
        raise LayoutError(f"layout map {phi} uses a physical qubit outside [0, {cg.num_nodes})")
    at: list[int | None] = [None] * cg.num_nodes  # physical -> logical
    for q, p in enumerate(phi):
        at[p] = q
    hops = cg.hop_counts()
    pairs = [inst.qubits for inst in circ.instructions
             if len(inst.qubits) == 2 and inst.name != "barrier"]
    out = []
    swaps = k = routed = searched = 0
    for inst in circ.instructions:
        qs = inst.qubits
        if len(qs) == 2 and inst.name != "barrier":
            a, b = qs
            k += 1
            if not cg.has_edge(phi[a], phi[b]):
                routed += 1
                path = _table_path(cg, phi[a], phi[b])
                if any([at[v] in protected for v in path[1:-1]]):
                    path = _protected_path(cg, phi[a], phi[b], {phi[q] for q in protected})
                    searched += 1
                upcoming = pairs[k:k + LOOKAHEAD]
                if _walk_cost(path[::-1], phi, at, upcoming, hops) < \
                        _walk_cost(path, phi, at, upcoming, hops):
                    path.reverse()
                # walk the chosen end along the path until adjacent to the other
                for u, v in zip(path, path[1:-1]):
                    out.append(Instruction("swap", (u, v)))
                    x, y = at[v], at[u]
                    at[u], at[v] = x, y
                    if x is not None:
                        phi[x] = u
                    if y is not None:
                        phi[y] = v
                if not cg.has_edge(phi[a], phi[b]):
                    raise LayoutError("routing failed to make the gate local")
                swaps += len(path) - 2
            out.append(Instruction(inst.name, (phi[a], phi[b]), inst.params, inst.clbits))
        elif len(qs) == 1:
            out.append(Instruction(inst.name, (phi[qs[0]],), inst.params, inst.clbits))
        else:
            out.append(Instruction(inst.name, tuple([phi[q] for q in qs]), inst.params, inst.clbits))
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(json.dumps({
            "nonlocal_gates": routed,
            "swaps": swaps,
            "table_paths": routed - searched,
            "searched_paths": searched,
        }))
    return RoutingResult(Circuit([Register("q", cg.num_nodes, 0)], list(circ.cregs), out),
                         list(layout.map), phi, swaps)


# -- scheduling ---------------------------------------------------------------

@dataclass
class Schedule:
    steps: list[int]
    depth: int


def schedule(circ: Circuit) -> Schedule:
    """ASAP list schedule: each instruction at the earliest step after its
    qubit/clbit predecessors.  One list holds each wire's next free step,
    the qubits first and clbit c at num_qubits + c."""
    nq = circ.num_qubits
    free = [0] * (nq + circ.num_clbits)
    steps: list[int] = []
    for inst in circ.instructions:
        qs = inst.qubits
        if not inst.clbits and len(qs) == 1:
            q = qs[0]
            start = free[q]
            free[q] = start + 1
        elif not inst.clbits and len(qs) == 2:
            a, b = qs
            start, other = free[a], free[b]
            if other > start:
                start = other
            free[a] = free[b] = start + 1
        else:
            wires = [*qs, *[nq + c for c in inst.clbits]]
            start = max([free[w] for w in wires], default=0)
            for w in wires:
                free[w] = start + 1
        steps.append(start)
    return Schedule(steps, max(steps) + 1 if steps else 0)
