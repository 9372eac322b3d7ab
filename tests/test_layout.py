import itertools
import json
import random

import numpy as np
import pytest

from qedc.circuit import Circuit
from qedc.layout import (
    CouplingGraph,
    Layout,
    LayoutError,
    fallback_layout,
    heavy_hex_127,
    route,
    schedule,
    score_layout,
    vf2_layouts,
)
from qedc.simulator import statevector


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
