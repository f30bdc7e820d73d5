"""The package's immutable records: construction, equality, hashing,
printing, immutability and pickling, the same for each of the 18 classes."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import monoid_holes
from monoid_holes.dioph import HilbertBasis
from monoid_holes.holes import FundamentalHoleSet, HoleCell, HoleRepresentation, SemigroupProblem
from monoid_holes.intlinalg import IntMatrix, LatticeBasis
from monoid_holes.limits import Limits
from monoid_holes.monomials import MonomialIdeal, StandardPair
from monoid_holes.polyhedra import Cone, FeasibilitySystem, LPResult
from monoid_holes.records import Record
from monoid_holes.saturation import BoundReport, SaturationResult
from monoid_holes.transport import MarginTriple, TransportDims, VlachReport

M = IntMatrix(((1, 2),))
LATTICE = LatticeBasis(1, 1, ((1,),), (0,))
CONE = Cone((), ((1,),))
BASIS = HilbertBasis(((1,), (2,)))
PAIR = StandardPair((0, 1), (0,))
CELL = HoleCell((3,), ((2,),), (3,), PAIR)
FUNDAMENTAL = FundamentalHoleSet((), BASIS, ())

# each class with positional arguments and its repr, as dataclasses printed it
CASES = [
    (HilbertBasis, (((1,), (2,)),), "HilbertBasis(elements=((1,), (2,)))"),
    (SemigroupProblem, (M, LATTICE, CONE, ((1,), (2,))),
     "SemigroupProblem(matrix=IntMatrix(entries=((1, 2),)), lattice=LatticeBasis(ambient_dim=1, "
     "rank=1, columns=((1,),), pivot_rows=(0,)), cone=Cone(equations=(), facets=((1,),)), "
     "generators=((1,), (2,)))"),
    (FundamentalHoleSet, ((), BASIS, ()),
     "FundamentalHoleSet(holes=(), hilbert_basis=HilbertBasis(elements=((1,), (2,))), "
     "basis_holes=())"),
    (HoleCell, ((3,), ((2,),), (3,), PAIR),
     "HoleCell(shift=(3,), generators=((2,),), fundamental_hole=(3,), "
     "pair=StandardPair(root=(0, 1), free_vars=(0,)))"),
    (HoleRepresentation, ((CELL,), FUNDAMENTAL),
     "HoleRepresentation(cells=(HoleCell(shift=(3,), generators=((2,),), fundamental_hole=(3,), "
     "pair=StandardPair(root=(0, 1), free_vars=(0,))),), fundamental_set=FundamentalHoleSet("
     "holes=(), hilbert_basis=HilbertBasis(elements=((1,), (2,))), basis_holes=()))"),
    (IntMatrix, (((1, 2),),), "IntMatrix(entries=((1, 2),))"),
    (LatticeBasis, (1, 1, ((1,),), (0,)),
     "LatticeBasis(ambient_dim=1, rank=1, columns=((1,),), pivot_rows=(0,))"),
    (Limits, (1, 2, 3, 4, 5),
     "Limits(max_basis=1, max_nodes=2, max_pairs=3, max_subsets=4, max_rays=5)"),
    (MonomialIdeal, (2, ((1, 0), (0, 1))), "MonomialIdeal(num_vars=2, generators=((1, 0), (0, 1)))"),
    (StandardPair, ((0, 1), (0,)), "StandardPair(root=(0, 1), free_vars=(0,))"),
    (Cone, ((), ((1,),)), "Cone(equations=(), facets=((1,),))"),
    (FeasibilitySystem, (M, (3,)), "FeasibilitySystem(matrix=IntMatrix(entries=((1, 2),)), rhs=(3,))"),
    (LPResult, ("optimal", Fraction(1, 2), (Fraction(1, 2), Fraction(0)), None),
     "LPResult(status='optimal', optimum=Fraction(1, 2), witness=(Fraction(1, 2), "
     "Fraction(0, 1)), farkas=None)"),
    (BoundReport, (2, 2, 2, 16), "BoundReport(d_plus_1=2, m_f=2, d_a=2, bound=16)"),
    (SaturationResult, (MonomialIdeal(2, ((1, 0),)), ((1,),), ()),
     "SaturationResult(ideal=MonomialIdeal(num_vars=2, generators=((1, 0),)), points=((1,),), "
     "removed_by_filter=())"),
    (TransportDims, (1, 2, 3), "TransportDims(r=1, s=2, t=3)"),
    (MarginTriple, (((1,),), ((1,),), ((1,),)), "MarginTriple(u=((1,),), v=((1,),), w=((1,),))"),
    (VlachReport, ((1, 2), None, ((0, 0, 0),), (), True, True, True, ("note",)),
     "VlachReport(f=(1, 2), z_star=None, support=((0, 0, 0),), non_hole_witnesses=(), "
     "f_is_hole=True, f_is_fundamental_checked=True, "
     "holes_are_f_plus_monoid_a_prime=True, diagnostics=('note',))"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_is_covered():
    declared = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("monoid_holes.")}
    assert declared == {cls for cls, _, _ in CASES}
    assert len(declared) == 18


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
class TestEveryRecord:
    def test_keywords_and_positions_agree(self, cls, args, text):
        record = cls(*args)
        assert cls(**dict(zip(cls._fields, args))) == record
        assert cls(*args[:1], **dict(zip(cls._fields[1:], args[1:]))) == record
        assert tuple(getattr(record, name) for name in cls._fields) == args

    def test_bad_arguments(self, cls, args, text):
        with pytest.raises(TypeError):
            cls(*args, bogus=1)
        with pytest.raises(TypeError):
            cls(*args, **{cls._fields[0]: args[0]})
        with pytest.raises(TypeError):
            cls(*args, args[0])

    def test_equality_and_hash(self, cls, args, text):
        record = cls(*args)
        assert record == cls(*args)
        assert hash(record) == hash(cls(*args)) == hash(args)
        twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields, "object")})
        assert twin(*args) != record
        assert record != args

    def test_repr(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_immutable(self, cls, args, text):
        record = cls(*args)
        for name in (cls._fields[0], "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*args)

    def test_pickle_round_trip(self, cls, args, text):
        record = cls(*args)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls
        assert copy == record

    def test_replace(self, cls, args, text):
        # a changed record is built directly: every field by keyword, or
        # the fields of another record with one of them given again
        record = cls(*args)
        fields = dict(zip(cls._fields, args))
        assert cls(**fields) == record
        assert cls(**{**fields, cls._fields[0]: args[0]}) == record


def test_defaults():
    assert Limits() == Limits(10**6, 10**7, 10**5, 10**6, 10**5)
    assert repr(Limits()) == ("Limits(max_basis=1000000, max_nodes=10000000, max_pairs=100000, "
                              "max_subsets=1000000, max_rays=100000)")
    assert Limits(max_rays=7) == Limits(10**6, 10**7, 10**5, 10**6, 7)
    assert LPResult("infeasible", None, None).farkas is None
    with pytest.raises(TypeError, match="missing"):
        LPResult("infeasible", None)
    with pytest.raises(TypeError, match="missing"):
        Cone(())


def test_replace_rebuilds_through_post_init():
    # records have no _replace; a record built by keyword goes through
    # __post_init__, which checks and normalises the new value
    assert Limits(max_nodes=5).max_nodes == 5
    with pytest.raises(ValueError, match="max_nodes"):
        Limits(max_nodes=0)
    assert IntMatrix(entries=[[3, 4]]).entries == ((3, 4),)
    assert not hasattr(Limits(), "_replace")


def test_subclass_keeps_fields_defaults_and_post_init():
    class Matrix(IntMatrix):
        pass

    assert Matrix._fields == ("entries",)
    assert Matrix([[1, 2]]).entries == ((1, 2),)  # IntMatrix.__post_init__ ran
    assert repr(Matrix([[1, 2]])) == f"{Matrix.__qualname__}(entries=((1, 2),))"
    assert Matrix([[1, 2]]) != IntMatrix([[1, 2]])

    class Wider(Limits):
        max_depth: int = 3

    assert Wider._fields == Limits._fields + ("max_depth",)
    wider = Wider(max_rays=7)
    assert (wider.max_basis, wider.max_rays, wider.max_depth) == (10**6, 7, 3)
    with pytest.raises(ValueError, match="max_nodes"):
        Wider(max_nodes=0)
    with pytest.raises(ValueError, match="max_depth"):
        Wider(max_depth=0)

    class Empty(Record):
        pass

    assert Empty() == Empty() and repr(Empty()) == f"{Empty.__qualname__}()" and Empty._fields == ()


def test_private_state_stays_out_of_eq_hash_and_repr():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[1, 2]])
    assert a._lattice.rank == 1  # cached in a's __dict__ only
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "IntMatrix(entries=((1, 2),))"
    assert pickle.loads(pickle.dumps(a)) == b
    problem = SemigroupProblem.build(a)
    problem._derive("key", lambda: 1)
    assert problem == SemigroupProblem.build(b)
    assert "_derived" not in repr(problem)


def test_package_import_does_not_load_dataclasses():
    code = "import sys, monoid_holes.cli; print('dataclasses' in sys.modules)"
    src = str(Path(monoid_holes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
