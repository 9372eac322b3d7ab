import dataclasses
import re
import sys
from pathlib import Path

import pytest

from qedc import simulator
from qedc.circuit import (
    Circuit,
    Instruction,
    Register,
    counts_key,
    key_group_index,
    validate,
)
from qedc.layout import heavy_hex_127
from qedc.pipeline import compile_circuit
from qedc.qasm import emit_qasm, parse_qasm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def bell():
    c = Circuit()
    c.add_qreg("q", 2)
    c.add_creg("c", 2)
    c.append("h", (0,))
    c.append("cx", (0, 1))
    c.append("measure", (0,), clbits=(0,))
    c.append("measure", (1,), clbits=(1,))
    return c


def test_register_indexing_is_global():
    c = Circuit()
    a = c.add_qreg("a", 2)
    b = c.add_qreg("b", 3)
    assert (a.start, b.start) == (0, 2)
    assert c.num_qubits == 5
    c.append("h", (3,))
    assert "h b[1];" in emit_qasm(c).splitlines()


def test_gate_param_arity_enforced():
    with pytest.raises(ValueError, match=re.escape("gate 'rz' takes 1 parameter(s), got 0")):
        Instruction("rz", (0,))  # missing angle
    with pytest.raises(ValueError, match=re.escape("gate 'h' takes 0 parameter(s), got 1")):
        Instruction("h", (0,), (0.5,))
    with pytest.raises(ValueError, match="^unknown gate kind: 'nonsense'$"):
        Instruction("nonsense", (0,))
    # dataclasses.replace builds through the same checks
    rz = Instruction("rz", (0,), (0.5,))
    assert dataclasses.replace(rz, qubits=(1,)) == Instruction("rz", (1,), (0.5,))
    with pytest.raises(ValueError, match=re.escape("gate 'rz' takes 1 parameter(s), got 0")):
        dataclasses.replace(rz, params=())
    with pytest.raises(ValueError, match="^unknown gate kind: 'nonsense'$"):
        dataclasses.replace(rz, name="nonsense")


def test_instruction_is_a_frozen_record_without_a_dict():
    a, b = Instruction("measure", (1,), (), (0,)), Instruction("measure", (1,), clbits=(0,))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Instruction("measure", (1,), clbits=(1,))
    assert repr(a) == "Instruction(name='measure', qubits=(1,), params=(), clbits=(0,))"
    for field in ("name", "qubits", "params", "clbits"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, getattr(b, field))
    assert not hasattr(a, "__dict__")


def test_compact_copies_the_routed_pcs_heavyhex_compile_field_by_field():
    w = WORKLOADS["pcs_heavyhex"]
    compiled, _ = compile_circuit(parse_qasm(w.qasm()), code=w.code, checks=w.checks,
                                  coupling=heavy_hex_127())
    got = simulator._compact(compiled)
    used = sorted({q for inst in compiled.instructions for q in inst.qubits})
    assert got.num_qubits == len(used) < compiled.num_qubits and got.cregs == compiled.cregs
    assert len(got.instructions) == len(compiled.instructions)
    for new, old in zip(got.instructions, compiled.instructions):
        assert type(new) is Instruction
        assert new.name == old.name and new.params == old.params and new.clbits == old.clbits
        assert new.qubits == tuple(used.index(q) for q in old.qubits)


def test_validate_clean_circuit():
    assert validate(bell()) == []


def test_validate_flags_violations():
    c = bell()
    c.instructions.append(Instruction("cx", (0, 0)))          # duplicate qubit
    c.instructions.append(Instruction("x", (9,)))             # out of bounds
    c.instructions.append(Instruction("cx", (0,)))            # bad arity
    codes = sorted(d.code for d in validate(c))
    assert codes == ["arity", "duplicate-qubit", "out-of-bounds"]


def test_validate_register_layout():
    c = Circuit(qregs=[Register("a", 2, 0), Register("b", 2, 5)])
    assert any(d.code == "register-layout" for d in validate(c))


def test_counts_key_convention():
    # groups in reverse declaration order; leftmost char = highest bit index
    cregs = [Register("c", 3, 0), Register("anc", 2, 3)]
    # c = [1,0,0] -> "001"; anc = [0,1] -> "10"; anc declared last = first group
    assert counts_key([1, 0, 0, 0, 1], cregs) == "10 001"
    assert key_group_index(cregs, "anc") == 0
    assert key_group_index(cregs, "c") == 1
    with pytest.raises(KeyError):
        key_group_index(cregs, "missing")


def test_copy_is_independent():
    c = bell()
    d = c.copy()
    d.append("x", (0,))
    assert len(c.instructions) == 4
    assert len(d.instructions) == 5
    e = c.copy_empty()
    assert e.qregs == c.qregs and e.instructions == []


def test_duplicate_register_names_rejected():
    c = Circuit()
    c.add_qreg("q", 2)
    with pytest.raises(ValueError):
        c.add_qreg("q", 1)
