import itertools
import json
import logging
import random

import numpy as np
import pytest

from qedc.circuit import Circuit
from qedc.layout import (
    CouplingGraph,
    Layout,
    LayoutError,
    _protected_path,
    _table_path,
    fallback_layout,
    heavy_hex_127,
    route,
    schedule,
    score_layout,
    vf2_layouts,
)
from qedc.simulator import statevector

from oracles import reference_route, reference_schedule


def brute_monomorphisms(ig_edges, k, cg):
    out = []
    for perm in itertools.permutations(range(cg.num_nodes), k):
        if all(cg.has_edge(perm[a], perm[b]) for a, b in ig_edges):
            out.append(list(perm))
    return out


def test_coupling_graph_validation():
    with pytest.raises(ValueError):
        CouplingGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        CouplingGraph(3, [(0, 5)])
    with pytest.raises(ValueError):
        CouplingGraph(3, [(0, 1), (1, 0)])


def test_has_edge_is_false_off_the_graph():
    cg = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert cg.has_edge(0, 1) and cg.has_edge(1, 0) and not cg.has_edge(0, 2)
    assert not any(cg.has_edge(a, b) for a, b in [(-1, 2), (3, -1), (4, 3), (3, 4), (-4, 1)])


def test_coupling_json_roundtrip():
    cg = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert CouplingGraph.from_dict(cg.to_dict())._edge_set == cg._edge_set


def test_heavy_hex_shape():
    cg = heavy_hex_127()
    assert cg.num_nodes == 127
    assert len(cg.edges) == 144
    assert max(cg.degree(i) for i in range(127)) == 3
    d = cg.distances()
    assert all(x >= 0 for row in d for x in row)  # connected
    # one BFS table per graph, read as int rows and as the numpy matrix
    assert cg.hop_counts() is cg.hop_counts() and d.tolist() == cg.hop_counts()


def test_shipped_coupling_file_matches_generator():
    import qedc
    import os
    path = os.path.join(os.path.dirname(qedc.__file__), "data", "heavyhex_127.json")
    with open(path) as fh:
        shipped = CouplingGraph.from_dict(json.load(fh))
    gen = heavy_hex_127()
    assert shipped.num_nodes == gen.num_nodes
    assert shipped.edges == gen.edges


def test_p3_into_k3_has_six_monomorphisms():
    k3 = CouplingGraph(3, [(0, 1), (1, 2), (0, 2)])
    found = vf2_layouts({(0, 1): 1, (1, 2): 1}, 3, k3, limit=100)
    assert len(found) == 6
    assert sorted(l.map for l in found) == sorted(brute_monomorphisms([(0, 1), (1, 2)], 3, k3))


def test_p4_into_star_is_empty():
    star = CouplingGraph(4, [(0, 1), (0, 2), (0, 3)])
    ig = {(0, 1): 1, (1, 2): 1, (2, 3): 1}
    assert vf2_layouts(ig, 4, star, limit=10) == []


def test_isolated_node_gets_all_placements():
    cg = CouplingGraph(5, [(0, 1)])
    found = vf2_layouts({}, 1, cg, limit=100)
    assert sorted(l.map[0] for l in found) == [0, 1, 2, 3, 4]


def test_vf2_matches_brute_force_random_corpus():
    rng = random.Random(77)
    for _ in range(25):
        k = rng.randrange(2, 6)
        n = rng.randrange(k, 8)
        cg_edges = set()
        for _ in range(rng.randrange(n, 2 * n)):
            a, b = rng.sample(range(n), 2)
            cg_edges.add((min(a, b), max(a, b)))
        cg = CouplingGraph(n, sorted(cg_edges))
        ig_edges = set()
        for _ in range(rng.randrange(1, k + 2)):
            a, b = rng.sample(range(k), 2)
            ig_edges.add((min(a, b), max(a, b)))
        ig = {e: 1 for e in ig_edges}
        found = vf2_layouts(ig, k, cg, limit=10 ** 6)
        assert sorted(l.map for l in found) == sorted(brute_monomorphisms(ig_edges, k, cg))
        for l in found:
            assert score_layout(ig, l.map, cg) == 0


def test_vf2_deterministic_order():
    cg = heavy_hex_127()
    ig = {(0, 1): 2, (1, 2): 1}
    a = vf2_layouts(ig, 3, cg, limit=5)
    b = vf2_layouts(ig, 3, cg, limit=5)
    assert [l.map for l in a] == [l.map for l in b]


def test_fallback_k3_on_path_scores_one():
    p3 = CouplingGraph(3, [(0, 1), (1, 2)])
    ig = {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    lay = fallback_layout(ig, 3, p3)
    assert lay.score == 1


def test_fallback_empty_graph_identity_order():
    cg = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
    lay = fallback_layout({}, 3, cg)
    assert lay.map == [0, 1, 2]
    assert lay.score == 0


def test_fallback_insufficient_qubits():
    with pytest.raises(LayoutError):
        fallback_layout({}, 4, CouplingGraph(2, [(0, 1)]))


def _routed_equivalent(circ, res, cg):
    sv = statevector(circ)
    sv_rt = statevector(res.circuit)
    n_log = circ.num_qubits
    full = np.zeros(2 ** cg.num_nodes, dtype=complex)
    for idx in range(2 ** n_log):
        tgt = 0
        for q in range(n_log):
            if (idx >> q) & 1:
                tgt |= 1 << res.final_layout[q]
        full[tgt] = sv[idx]
    return abs(np.vdot(full, sv_rt)) > 1 - 1e-10


def test_route_fixed_point_when_local():
    cg = CouplingGraph(3, [(0, 1), (1, 2)])
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("cx", (0, 1))
    c.append("cx", (1, 2))
    res = route(c, Layout([0, 1, 2], 0), cg)
    assert res.swap_count == 0
    assert [i.name for i in res.circuit.instructions] == ["cx", "cx"]


def test_route_inserts_single_swap_on_path():
    cg = CouplingGraph(3, [(0, 1), (1, 2)])
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("h", (0,))
    c.append("cx", (0, 2))
    res = route(c, Layout([0, 1, 2], 0), cg)
    assert res.swap_count == 1
    assert _routed_equivalent(c, res, cg)


def test_route_random_circuits_unitary_equivalent():
    rng = random.Random(41)
    grid = CouplingGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    for _ in range(15):
        c = Circuit()
        c.add_qreg("q", 5)
        for _ in range(10):
            g = rng.choice(["h", "s", "rz", "cx", "cz"])
            if g in ("cx", "cz"):
                c.append(g, tuple(rng.sample(range(5), 2)))
            elif g == "rz":
                c.append(g, (rng.randrange(5),), (rng.uniform(0, 3),))
            else:
                c.append(g, (rng.randrange(5),))
        perm = list(range(5))
        rng.shuffle(perm)
        res = route(c, Layout(perm, 0), grid)
        assert _routed_equivalent(c, res, grid)


def test_route_avoids_protected_qubits():
    # direct 2-hop path passes over protected logical qubit 1; a 4-hop detour
    # exists, so no swap may touch the protected qubit's physical seat
    cg = CouplingGraph(6, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 5), (5, 4)])
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("cx", (0, 2))  # logical 0 at phys 0, logical 2 at phys 4
    res = route(c, Layout([0, 1, 4], 0), cg, protected={1})
    for inst in res.circuit.instructions:
        if inst.name == "swap":
            assert 1 not in inst.qubits
    assert _routed_equivalent(c, res, cg)


def test_route_walks_the_end_that_leaves_the_next_gate_closest():
    # on the line 0-1-2-3-4, cx(0,1) leaves logical 0 next to logical 2 only
    # if logical 1 walks to it: two SWAPs in all, where walking logical 0
    # first would need four
    cg = CouplingGraph(5, [(i, i + 1) for i in range(4)])
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("h", (0,))
    c.append("ry", (1,), (0.7,))
    c.append("cx", (0, 1))
    c.append("rz", (1,), (0.3,))
    c.append("cx", (0, 2))
    c.append("h", (2,))
    res = route(c, Layout([1, 4, 0], 0), cg)
    assert res.swap_count == 2
    assert [i.qubits for i in res.circuit.instructions if i.name == "swap"] == [(4, 3), (3, 2)]
    assert res.final_layout == [1, 2, 0]
    assert _routed_equivalent(c, res, cg)


def test_route_walks_a_protected_end_around_a_protected_seat():
    # logical 1 (protected) blocks the 2-hop path 0-1-4; the next gate wants
    # logical 0 to stay beside logical 3, so the protected end, logical 2,
    # walks the detour 4-5-3-2 and no SWAP touches seat 1
    cg = CouplingGraph(7, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 5), (5, 4), (0, 6)])
    c = Circuit()
    c.add_qreg("q", 4)
    c.append("h", (0,))
    c.append("cx", (0, 2))
    c.append("s", (2,))
    c.append("cx", (0, 3))
    c.append("h", (1,))
    res = route(c, Layout([0, 1, 4, 6], 0), cg, protected={1, 2})
    assert [i.qubits for i in res.circuit.instructions if i.name == "swap"] == \
        [(4, 5), (5, 3), (3, 2)]
    assert res.final_layout == [0, 1, 2, 6]
    assert _routed_equivalent(c, res, cg)


def test_route_remaps_measurements():
    cg = CouplingGraph(3, [(0, 1), (1, 2)])
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("c", 3)
    c.append("cx", (0, 2))
    c.append("measure", (0,), clbits=(0,))
    res = route(c, Layout([0, 1, 2], 0), cg)
    meas = [i for i in res.circuit.instructions if i.name == "measure"][0]
    assert meas.qubits[0] == res.final_layout[0]


def _line(n):
    return CouplingGraph(n, [(i, i + 1) for i in range(n - 1)])


def _grid(rows, cols):
    return CouplingGraph(rows * cols, [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
                         + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def _random_connected(rng, n):
    # a random tree plus extra edges: many equal-length paths, so many ties
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(n)):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return CouplingGraph(n, sorted(edges))


def _graphs(rng):
    return [_line(7), _grid(3, 4), _grid(4, 4), heavy_hex_127(),
            *(_random_connected(rng, rng.randrange(5, 14)) for _ in range(8))]


@pytest.mark.parametrize("seats, why", [([0, 0, 1], "seats two qubits on one physical qubit"),
                                        ([0, 4, 1], "uses a physical qubit outside [0, 4)"),
                                        ([0, -1, 1], "uses a physical qubit outside [0, 4)")])
def test_route_rejects_a_layout_that_repeats_or_leaves_the_seats(seats, why):
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("cx", (0, 2))
    c.append("h", (1,))
    with pytest.raises(LayoutError) as exc:
        route(c, Layout(seats, 0), _line(4))
    assert str(exc.value) == f"layout map {seats} {why}"


@pytest.mark.parametrize("protected, stray", [({7}, [7]), ({1, 7}, [7]), ({-1}, [-1]),
                                               ({-2, 1, 7}, [-2, 7])],
                         ids=["unused", "on-the-path", "negative", "each-named"])
def test_route_rejects_protected_indices_outside_the_circuit(protected, stray):
    c = Circuit()
    c.add_qreg("q", 3)
    c.append("cx", (0, 2))
    with pytest.raises(LayoutError) as exc:
        route(c, Layout([0, 1, 2], 0), _line(3), protected=protected)
    assert str(exc.value) == f"protected qubits {stray} outside [0, 3)"


def test_table_path_is_the_search_path_off_protected_seats():
    rng = random.Random(2701)
    held = searched = 0
    for cg in _graphs(rng):
        n = cg.num_nodes
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        if len(pairs) > 3000:
            pairs = rng.sample(pairs, 3000)
        hops = cg.hop_counts()
        for src, dst in pairs:
            table = _table_path(cg, src, dst)
            assert table[0] == src and table[-1] == dst and len(table) == hops[src][dst] + 1
            assert all(cg.has_edge(u, v) for u, v in zip(table, table[1:]))
            assert table == _protected_path(cg, src, dst, set())
            # protected sets that may hold either end of the gate
            for protected in ({src, dst}, set(rng.sample(range(n), rng.randrange(1, max(2, n // 3))))):
                if protected.isdisjoint(table[1:-1]):
                    assert table == _protected_path(cg, src, dst, protected)
                    held += 1
                else:
                    searched += 1
    assert held > 5_000 and searched > 1_000  # both sides of the rule were exercised


def _random_circuit(rng, n, gates):
    c = Circuit()
    c.add_qreg("q", n)
    c.add_creg("c", n)
    for _ in range(gates):
        g = rng.choice(["h", "rz", "cx", "cz", "rzz", "swap", "measure", "barrier"])
        if g in ("cx", "cz", "swap"):
            c.append(g, tuple(rng.sample(range(n), 2)))
        elif g == "rzz":
            c.append(g, tuple(rng.sample(range(n), 2)), (rng.uniform(0, 3),))
        elif g == "rz":
            c.append(g, (rng.randrange(n),), (rng.uniform(0, 3),))
        elif g == "measure":
            c.append(g, (rng.randrange(n),), clbits=(rng.randrange(n),))
        elif g == "barrier":
            c.append(g, tuple(rng.sample(range(n), rng.randrange(1, n + 1))))
        else:
            c.append(g, (rng.randrange(n),))
    return c


def test_route_matches_the_reference_router():
    rng = random.Random(2702)
    swaps = detoured = 0
    for cg in _graphs(rng):
        for _ in range(30):
            n = rng.randrange(2, min(cg.num_nodes, 8) + 1)
            c = _random_circuit(rng, n, rng.randrange(1, 30))
            lay = Layout(rng.sample(range(cg.num_nodes), n), 0)
            protected = set(rng.sample(range(n), rng.randrange(0, n)))
            want = reference_route(c, lay, cg, protected)
            got = route(c, lay, cg, protected)
            assert got.circuit == want.circuit
            assert (got.initial_layout, got.final_layout, got.swap_count) == \
                (want.initial_layout, want.final_layout, want.swap_count)
            swaps += got.swap_count
            detoured += got.circuit != route(c, lay, cg).circuit
    assert swaps > 1_000 and detoured > 30  # protection moved some paths


def test_route_logs_its_paths_at_debug(caplog):
    # cx(0,2) crosses protected logical 1 at seat 1 and is searched; cx(0,3)
    # then reads its path off the table
    cg = CouplingGraph(7, [(0, 1), (1, 4), (0, 2), (2, 3), (3, 5), (5, 4), (0, 6), (6, 3)])
    c = Circuit()
    c.add_qreg("q", 4)
    c.append("cx", (0, 2))
    c.append("cx", (3, 0))
    c.append("cx", (0, 1))
    with caplog.at_level(logging.DEBUG, logger="qedc.layout"):
        res = route(c, Layout([0, 1, 4, 5], 0), cg, protected={1})
    (record,) = [r for r in caplog.records if r.name == "qedc.layout"]
    assert json.loads(record.getMessage()) == {"nonlocal_gates": 2, "swaps": 4,
                                               "table_paths": 1, "searched_paths": 1}
    assert res.swap_count == 4
    assert _routed_equivalent(c, res, cg)
    caplog.clear()
    route(c, Layout([0, 1, 4, 5], 0), cg, protected={1})
    assert not [r for r in caplog.records if r.name == "qedc.layout"]


def test_schedule_parallel_and_chain():
    c = Circuit()
    c.add_qreg("q", 2)
    c.append("h", (0,))
    c.append("h", (1,))
    s = schedule(c)
    assert s.steps == [0, 0] and s.depth == 1

    chain = Circuit()
    chain.add_qreg("q", 5)
    for q in range(4):
        chain.append("cx", (q, q + 1))
    assert schedule(chain).depth == 4


def test_schedule_barrier_synchronizes():
    c = Circuit()
    c.add_qreg("q", 2)
    c.append("h", (0,))
    c.append("barrier", (0, 1))
    c.append("h", (1,))
    s = schedule(c)
    assert s.steps == [0, 1, 2]


def test_schedule_early_measurement():
    c = Circuit()
    c.add_qreg("q", 3)
    c.add_creg("c", 1)
    c.append("h", (0,))
    c.append("measure", (0,), clbits=(0,))
    c.append("cx", (1, 2))
    c.append("cx", (2, 1))
    c.append("cx", (1, 2))
    s = schedule(c)
    assert s.steps[1] < s.depth - 1  # measurement well before the end


def test_schedule_matches_the_reference():
    rng = random.Random(2703)
    for _ in range(200):
        c = _random_circuit(rng, rng.randrange(2, 7), rng.randrange(0, 40))
        s = schedule(c)
        want = reference_schedule(c)
        assert s.steps == want and s.depth == max((t + 1 for t in want), default=0)
