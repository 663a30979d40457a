"""The contract of every result record: construction, repr, equality, hash,
immutability, copies and pattern matching, pinned class by class."""
import copy
import enum
import inspect
import pickle

import pytest

import empathica
from empathica import (
    BestResponseSet,
    Classification,
    ConsistencyVerdict,
    Constraint,
    Diagnostics,
    DiagonalReduction,
    DominatedAction,
    EmpathyMatrix,
    EquilibriumSet,
    EssKind,
    EssPoint,
    EssResult,
    Game2x2,
    GameKind,
    HierarchyAnalysis,
    InequalityReport,
    InequalityVerdict,
    LearningSchedule,
    LimitKind,
    MixedNashResult,
    MixedProfile,
    PopulationState,
    PureEquilibrium,
    RegionMap,
    RevisionProtocol,
    SpectralRecord,
    StabilizationReport,
    SymmetricEquilibria,
    SymmetryReport,
    Trajectory,
    VectorField,
)
from empathica.hierarchy import LevelRecord

LAM = EmpathyMatrix(1.0, 0.5, -0.25, 1.0)
PD = Game2x2(3.0, 0.0, 5.0, 1.0, 3.0, 5.0, 0.0, 1.0)
SPECTRAL = SpectralRecord((1.25 + 0j, 0.75 + 0j), 1.25, LimitKind.DIVERGES, None)
DIAGNOSTICS = Diagnostics(True, PopulationState(0.0, 1.0), False, None)

# One instance of each record class, as its fields in declaration order.
SAMPLES = {
    Game2x2: dict(a11=3.0, a12=0.0, a21=5.0, a22=1.0, b11=3.0, b12=5.0, b21=0.0, b22=1.0),
    EmpathyMatrix: dict(l11=1.0, l12=0.5, l21=-0.25, l22=1.0),
    Classification: dict(
        kind=GameKind.DEGENERATE,
        dominant_action_p1=1,
        dominant_action_p2=None,
        degenerate_ties=("a11-a21",),
    ),
    DominatedAction: dict(player=2, action=1, dominated_by=2, strict=False),
    SymmetryReport: dict(before=True, after=False),
    InequalityReport: dict(
        gap_before=-5.0,
        gap_after=-2.5,
        lambda_tilde=None,
        verdict=InequalityVerdict.REDUCED,
    ),
    PureEquilibrium: dict(cell=(2, 1), strict=True),
    MixedProfile: dict(x=0.25, y=1.0),
    MixedNashResult: dict(
        points=(MixedProfile(0.5, 0.5),),
        continua=((MixedProfile(0.0, 1.0), MixedProfile(1.0, 1.0)),),
        degenerate=True,
    ),
    EquilibriumSet: dict(
        pure=(PureEquilibrium((2, 2), False),),
        mixed=(MixedProfile(0.5, 0.25),),
        mixed_continua=(),
        mixed_degenerate=False,
        berge=((1, 1),),
        pareto_front=((1, 1), (2, 2)),
    ),
    RegionMap: dict(l12_values=(0.0, 1.0), l21_values=(-1.0,), labels=(("mixed", "pure:11"),)),
    DiagonalReduction: dict(beta1=-2.0, beta2=1.0, source=((3.0, 0.0), (5.0, 1.0))),
    SymmetricEquilibria: dict(points=(0.0, 1.0 / 3.0), degenerate=False),
    Constraint: dict(c1=2.0, c2=-1.0, V=0.5),
    BestResponseSet: dict(lo=0.25, hi=1.0),
    EssPoint: dict(m=0.5, kind=EssKind.INTERIOR),
    EssResult: dict(points=(EssPoint(0.0, EssKind.PURE_CORNER),), exists=True, degenerate=False),
    PopulationState: dict(p1=0.25, p2=1.0),
    RevisionProtocol: dict(kind="replicator", components=()),
    LearningSchedule: dict(kind="harmonic", base=0.5),
    Diagnostics: dict(
        converged=False, limit_point=None, cycle_detected=True, cycle_period_estimate=314.0
    ),
    Trajectory: dict(p1=(0.5, 0.25), p2=(0.5, 0.75), diagnostics=DIAGNOSTICS),
    VectorField: dict(resolution=2, rows=((0.0, 0.0, 0.5, -0.5), (1.0, 0.0, 0.0, 0.25))),
    StabilizationReport: dict(
        transformed_class=Classification(GameKind.COORDINATION), stabilized=True
    ),
    LevelRecord: dict(k=2, lam_k=LAM, signature="class=Coordination|pure=11,22|mixed=1"),
    SpectralRecord: dict(
        eigenvalues=(0.5 + 0.25j, 0.5 - 0.25j),
        rho=0.5590169943749475,
        limit_kind=LimitKind.ZERO,
        limit=EmpathyMatrix(0.0, 0.0, 0.0, 0.0),
    ),
    ConsistencyVerdict: dict(
        k_max=5,
        consistent_up_to_k=False,
        first_bad_k=3,
        witness_index=0,
        witness=PD,
        witness_signatures=("class=A|pure=-|mixed=0", "class=B|pure=-|mixed=0"),
        levels_checked=3,
        guard_hit=False,
        structurally_consistent=False,
        epsilons=None,
    ),
    HierarchyAnalysis: dict(
        lam=LAM,
        k_max=2,
        powers=((1.0, 0.5, -0.25, 1.0), (0.875, 1.0, -0.5, 0.875)),
        signatures=("class=A|pure=11|mixed=0", "class=A|pure=11|mixed=0"),
        consistent_up_to_k=True,
        spectral=SPECTRAL,
    ),
}
RECORDS = list(SAMPLES)


def make(cls):
    return cls(*SAMPLES[cls].values())


def test_every_record_class_has_a_sample():
    # Every public class that is not an enumeration is a record, and so is
    # the hierarchy's per-level record.
    public = {
        obj
        for obj in (getattr(empathica, name) for name in empathica.__all__)
        if isinstance(obj, type) and not issubclass(obj, enum.Enum)
    }
    assert public | {LevelRecord} == set(RECORDS)
    assert len(RECORDS) == 28


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordContract:
    def test_match_args_are_the_fields_in_declaration_order(self, cls):
        assert cls.__match_args__ == tuple(SAMPLES[cls])
        first, second, *_ = SAMPLES[cls].values()
        match make(cls):
            case cls(a, b):
                assert (a, b) == (first, second)
            case _:
                pytest.fail(f"{cls.__name__} does not match its fields positionally")

    def test_positional_and_keyword_construction(self, cls):
        fields = SAMPLES[cls]
        x = make(cls)
        assert x == cls(**fields)
        assert vars(x) == fields
        assert [getattr(x, name) for name in fields] == list(fields.values())
        params = inspect.signature(cls).parameters
        assert list(params) == list(fields)
        assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_defaults(self, cls):
        params = inspect.signature(cls).parameters.values()
        required = [SAMPLES[cls][p.name] for p in params if p.default is inspect.Parameter.empty]
        x = cls(*required)
        for p in params:
            if p.default is not inspect.Parameter.empty:
                assert getattr(x, p.name) == p.default == getattr(cls, p.name)

    def test_repr_shows_each_field(self, cls):
        fields = ", ".join(f"{name}={value!r}" for name, value in SAMPLES[cls].items())
        assert repr(make(cls)) == f"{cls.__name__}({fields})"
        assert str(make(cls)) == repr(make(cls))

    def test_equality_is_by_class_and_field_tuple(self, cls):
        x, y = make(cls), make(cls)
        assert x is not y and x == y and not x != y
        other = RECORDS[RECORDS.index(cls) - 1]
        assert x != make(other) and not x == make(other)
        assert x.__eq__(make(other)) is NotImplemented
        assert x != tuple(SAMPLES[cls].values())

    def test_hash_is_the_field_tuples(self, cls):
        x = make(cls)
        assert hash(x) == hash(tuple(SAMPLES[cls].values())) == hash(make(cls))
        assert {x: 1}[make(cls)] == 1

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        x = make(cls)
        for name in (*SAMPLES[cls], "not_a_field"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(x, name, 0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(x, name)
        assert vars(x) == SAMPLES[cls]

    def test_copies_and_pickles_compare_equal(self, cls):
        x = make(cls)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        pickled = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
        for clone in (copy.copy(x), copy.deepcopy(x), *pickled):
            assert type(clone) is cls
            assert clone == x and hash(clone) == hash(x)
            assert repr(clone) == repr(x)


def test_records_of_equal_field_tuples_but_other_classes_differ():
    assert MixedProfile(0.25, 1.0) != PopulationState(0.25, 1.0)
    assert BestResponseSet(0.25, 1.0) != PopulationState(0.25, 1.0)
    assert hash(MixedProfile(0.25, 1.0)) == hash(PopulationState(0.25, 1.0))
    assert MixedProfile(0.25, 1.0) != MixedProfile(0.25, 0.5)
    assert MixedProfile(0.25, 1.0) == MixedProfile(0.25, 1)


def test_nested_repr_text():
    assert repr(PD) == (
        "Game2x2(a11=3.0, a12=0.0, a21=5.0, a22=1.0, b11=3.0, b12=5.0, b21=0.0, b22=1.0)"
    )
    assert repr(Trajectory((0.5,), (0.5,), DIAGNOSTICS)) == (
        "Trajectory(p1=(0.5,), p2=(0.5,), diagnostics=Diagnostics(converged=True, "
        "limit_point=PopulationState(p1=0.0, p2=1.0), cycle_detected=False, "
        "cycle_period_estimate=None))"
    )
    assert repr(Classification(GameKind.COORDINATION)) == (
        "Classification(kind=<GameKind.COORDINATION: 'Coordination'>, dominant_action_p1=None, "
        "dominant_action_p2=None, degenerate_ties=())"
    )


def test_a_record_keeps_a_cached_property_in_its_dict():
    analysis = make(HierarchyAnalysis)
    assert "levels" not in vars(analysis)
    levels = analysis.levels
    assert analysis.levels is levels and vars(analysis)["levels"] is levels
    second = LevelRecord(2, EmpathyMatrix(0.875, 1.0, -0.5, 0.875), analysis.signatures[1])
    assert levels[1] == second
    # The cached levels are not a field: equality, hash and repr ignore them.
    assert analysis == make(HierarchyAnalysis) and hash(analysis) == hash(make(HierarchyAnalysis))
    assert "levels" not in repr(analysis)


def test_post_init_checks_run_once_the_fields_are_set():
    with pytest.raises(ValueError, match="^a21 must be a finite real number, got inf$"):
        Game2x2(0.0, 0.0, float("inf"), 0.0, 0.0, 0.0, 0.0, 0.0)
    # The message shows the record's repr, which reads every field.
    message = r"^profile coordinates must lie in \[0,1\], got MixedProfile\(x=2.0, y=0.5\)$"
    with pytest.raises(ValueError, match=message):
        MixedProfile(x=2.0, y=0.5)


def test_a_game_cell_is_read_from_its_field_alone():
    # No method names a payoff by its cell indices: the fields, the matrices
    # and ``payoffs()`` are the readers.
    assert not hasattr(PD, "a") and not hasattr(PD, "b")
    assert PD.row_matrix()[1][0] == PD.a21 == 5.0
    assert list(inspect.signature(BestResponseSet.contains).parameters) == ["self", "m"]
