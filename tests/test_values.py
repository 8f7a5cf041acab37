"""The package's value classes: equality, hashing, repr, immutability and
pickling over each class's fields; and the modules that importing the
package loads."""

import ast
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import daxkernel
from daxkernel.calculus import DaxContext
from daxkernel.cli import build_relations
from daxkernel.groups import Factor, GroupSpec, Word, parse_word
from daxkernel.pairing import PairingTable, SphereClass
from daxkernel.quotient import (AbelianStructure, OrbitAction, OrbitResult, RelationSet,
                                centralizer_orbit_reduce, quotient_structure)
from daxkernel.ring import RingElem
from daxkernel.scene import ManifoldScene, preset_expand
from daxkernel.snf import (SmithResult, SolveFailure, SparseElimination, smith_normal_form,
                           solve_integer)
from daxkernel.traces import (HomotopyTrace, KnotDax, KnotRecord, Witness, dax_of_knot,
                              universality_witness)

from conftest import replace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import import_time  # noqa: E402

# the fields each class compares, prints and, when frozen, hashes, in order
FIELDS = {
    Factor: ("kind", "gens", "order"),
    GroupSpec: ("factors",),
    Word: ("spec", "letters"),
    RingElem: ("spec", "terms"),
    SphereClass: ("name", "embedded", "base_dax", "lambda_u", "lambda_gen"),
    PairingTable: ("spec", "dimension", "classes", "u_class"),
    DaxContext: ("table", "s_class", "mode"),
    RelationSet: ("spec", "window", "letters", "columns", "provenance"),
    AbelianStructure: ("free_rank", "torsion", "window", "stable"),
    OrbitAction: ("s_class", "centralizer", "whisker"),
    OrbitResult: ("representative", "complete", "size"),
    HomotopyTrace: ("events",),
    KnotRecord: ("name", "trace"),
    KnotDax: ("name", "value", "residue", "free_coords", "torsion_coords",
              "orbit_complete", "orbit_size"),
    Witness: ("combination", "modulus", "detail"),
    SmithResult: ("diagonal", "rank", "left", "right"),
    SparseElimination: ("rank", "torsion", "basis", "free_rows", "residual_rows",
                        "residual_diagonal", "residual_left", "prefix_torsion"),
    SolveFailure: ("combination", "modulus"),
    ManifoldScene: ("dimension", "mode", "group", "u_class", "s_class",
                    "sphere_generators", "whisker", "window", "preset", "notes", "knots"),
}
MUTABLE = {OrbitResult, KnotDax, Witness, SmithResult, SparseElimination, SolveFailure}


def build_values() -> dict:
    """One instance of each value class, from a preset scene with two knots
    of equal value, its relation set and solver, an eval, an orbit and a
    universality run that fails."""
    scene = preset_expand("three_mfd", {"group": "Z<a,b>", "mode": "circles", "s": "a*b",
                                        "u": "a*b", "phi": "circle",
                                        "whisker": {"b": "a*b^2 - a^-1"}})
    trace = HomotopyTrace(((1, parse_word("a*b^2", scene.group)),
                           (-1, parse_word("b^-1", scene.group))))
    scene = replace(scene, knots=(KnotRecord("k1", trace), KnotRecord("k2", trace)))
    rs, action = build_relations(scene, 4)
    dax = dax_of_knot(scene.knots[0], rs, action)
    values = [scene, scene.group, scene.group.factors[0], scene.s_class, dax.value,
              scene.sphere_generators[0], scene.table(), scene.context(), rs,
              quotient_structure(rs), action, centralizer_orbit_reduce(dax.value, rs, action),
              trace, scene.knots[0], dax,
              universality_witness(list(scene.knots), {"k1": (0,), "k2": (1,)}, rs, action),
              smith_normal_form([[2, 4], [6, 8]]), rs.solver._elim,
              solve_integer([[2]], [[1]])[1]]
    return {type(v): v for v in values}


@pytest.fixture(scope="module")
def values():
    return build_values()


def test_every_value_class_is_built(values):
    assert set(values) == set(FIELDS)
    assert values[OrbitAction].centralizer and values[RelationSet].dropped_terms


def test_repr_lists_the_fields(values):
    for cls, v in values.items():
        shown = ", ".join(f"{name}={getattr(v, name)!r}" for name in FIELDS[cls])
        assert repr(v) == f"{cls.__name__}({shown})"
    assert repr(Factor("free", ("x", "y"))) == "Factor(kind='free', gens=('x', 'y'), order=0)"
    assert (repr(AbelianStructure(1, (2,), 3, True))
            == "AbelianStructure(free_rank=1, torsion=(2,), window=3, stable=True)")
    assert repr(values[Word]) == (
        "Word(spec=GroupSpec(factors=(Factor(kind='free_abelian', gens=('a', 'b'),"
        " order=0),)), letters=(('a', 1), ('b', 1)))")
    assert repr(SolveFailure([1, 0], None)) == "SolveFailure(combination=[1, 0], modulus=None)"


def _copy(v):
    """A new instance of v's class with v's attributes, past any guard."""
    other = object.__new__(type(v))
    vars(other).update(vars(v))
    return other


def test_equality_and_hash_read_the_fields_only(values):
    for cls, v in values.items():
        # a constructor call on the fields gives an equal value; the
        # RelationSet copy takes no dropped values and a new letter index,
        # and the OrbitResult copy another state
        again = replace(v, state=()) if cls is OrbitResult else replace(v)
        assert again is not v and again == v and not again != v
        assert v != object()
        if cls in MUTABLE:
            with pytest.raises(TypeError):
                hash(v)
        else:
            assert hash(again) == hash(v)
            if cls not in (GroupSpec, Word):  # each keeps its own hash
                assert hash(v) == hash(tuple(getattr(v, n) for n in FIELDS[cls]))
        if cls is Word:
            continue  # slots: test_groups checks its fields and hash
        for name in vars(v):
            other = _copy(v)
            vars(other)[name] = object()
            if name in FIELDS[cls]:
                assert other != v, (cls, name)
            elif name != "_hash":  # GroupSpec's hash, read by its equality
                # derived values, caches and compare=False fields
                assert other == v, (cls, name)
                if cls not in MUTABLE:
                    assert hash(other) == hash(v), (cls, name)
    rs = values[RelationSet]
    assert replace(rs).dropped_terms == () and rs.dropped_terms
    assert replace(values[OrbitResult], state=((0, 1),)) == values[OrbitResult]


def test_frozen_values_reject_every_write_and_delete(values):
    for cls, v in values.items():
        names = [*FIELDS[cls], *(() if cls is Word else vars(v)), "_hash", "new_name"]
        if cls in MUTABLE:
            other = _copy(v)
            other.new_name = 1
            del other.new_name
            continue
        for name in names:
            before = getattr(v, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(v, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(v, name)
            assert getattr(v, name, None) is before


def test_pickle_round_trip_gives_an_equal_value(values):
    for cls, v in values.items():
        copied = pickle.loads(pickle.dumps(v))
        assert type(copied) is cls and copied == v and repr(copied) == repr(v)
        if cls not in MUTABLE:
            assert hash(copied) == hash(v)


def test_import_loads_no_code_generation_or_unused_module():
    # a child interpreter without site, which may preload some of these
    src = Path(daxkernel.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules);"
            " import daxkernel; print(sorted(set(sys.modules) - before));"
            " import daxkernel.cli; print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    package, cli = map(ast.literal_eval, out.splitlines())
    assert "daxkernel.groups" in package and "daxkernel.cli" in cli
    unused = {"dataclasses", "inspect", "typing", "json", "fractions", "decimal"}
    assert sorted(set(package) & (unused | {"argparse"})) == []
    assert sorted(set(cli) & unused) == []


def test_import_time_prints_the_median_of_a_directory(capsys):
    src = str(Path(daxkernel.__file__).resolve().parents[1])
    assert import_time.main(["--runs", "3", src]) == 0
    ms, where = capsys.readouterr().out.rstrip("\n").split("  ")
    assert 0 < float(ms) < 10_000 and where == src
