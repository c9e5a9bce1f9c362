import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from massdrift.errors import (DegenerateBasis, PingPongViolation, SpecInvalid)
from massdrift.kernel import evolve, verify_reversibility
from massdrift.measures import GeneratorId, StepLaw
from massdrift.models import (BooleOrbitSpec, FunnelChainSpec, SchottkyGroup,
                              boole_orbit, build_funnel_chain,
                              build_lattice_model, preimage_jacobian_sum,
                              srw_law)
from massdrift.models.schottky import (INVERSE, LETTERS, core_distances,
                                       default_generator_matrices,
                                       generator_components, step_batch,
                                       to_disk, translation_length)
from massdrift.models.sl2 import TIE_TOL, reduce_batch, shortest_lengths
from massdrift.montecarlo import EnsembleSpec, _letter_blocks, run_ensemble


# -- stacked chart oracles ---------------------------------------------------
# Walker matrices as (n, 2, 2) stacks, stepped with np.einsum: the library
# works on component arrays and must match these bit for bit.

def reduce_stack(bases: np.ndarray, max_iter: int = 64) -> np.ndarray:
    """Gauss-reduce a stack of bases (n, 2, 2) in place, every walker on
    every pass; a basis in a +-1/2 tie is accepted after ``max_iter``."""
    b = bases
    for _ in range(max_iter):
        n0 = b[:, 0, 0] ** 2 + b[:, 1, 0] ** 2
        n1 = b[:, 0, 1] ** 2 + b[:, 1, 1] ** 2
        swap = n0 > n1
        if swap.any():
            b[swap] = np.stack((b[swap][:, :, 1], -b[swap][:, :, 0]), axis=2)
            n0 = np.where(swap, n1, n0)
        dot = b[:, 0, 0] * b[:, 0, 1] + b[:, 1, 0] * b[:, 1, 1]
        m = np.round(dot / n0)
        if not m.any():
            return b
        b[:, :, 1] -= m[:, None] * b[:, :, 0]
    n0 = np.minimum(b[:, 0, 0] ** 2 + b[:, 1, 0] ** 2,
                    b[:, 0, 1] ** 2 + b[:, 1, 1] ** 2)
    dot = b[:, 0, 0] * b[:, 0, 1] + b[:, 1, 0] * b[:, 1, 1]
    if np.all(np.abs(dot / n0) <= 0.5 + TIE_TOL):
        return b
    raise DegenerateBasis("batched reduction did not terminate")


def sl2_step_stack(bases: np.ndarray, gen_mats: np.ndarray,
                   letter_idx: np.ndarray) -> np.ndarray:
    """Left-multiply a stack of bases by per-walker generators and reduce."""
    return reduce_stack(np.einsum("nij,njk->nik", gen_mats[letter_idx], bases))


def schottky_step_stack(mats: np.ndarray, gen_mats: np.ndarray,
                        letter_idx: np.ndarray) -> np.ndarray:
    """Right-multiply a stack of walker matrices by per-walker letters."""
    return np.einsum("nij,njk->nik", mats, gen_mats[letter_idx])


def shortest_stack(bases: np.ndarray) -> np.ndarray:
    n0 = np.sqrt(bases[:, 0, 0] ** 2 + bases[:, 1, 0] ** 2)
    n1 = np.sqrt(bases[:, 0, 1] ** 2 + bases[:, 1, 1] ** 2)
    return np.minimum(n0, n1)


def core_stack(group: SchottkyGroup, mats: np.ndarray) -> np.ndarray:
    d = 2.0 * np.arcsinh(np.abs(mats[:, 0, 1]))
    return np.maximum(0.0, d - group.core_radius)


def components(bases: np.ndarray) -> tuple:
    """A stack (n, 2, 2) as the component arrays (a, b, c, d)."""
    return tuple(bases[:, i, j].copy() for i in (0, 1) for j in (0, 1))


# -- scalar chart oracles ----------------------------------------------------
# One point at a time: the library keeps only the batched steps
# (reduce_batch, step_batch, core_distances), and these check them.

MAX_REDUCTION_SWAPS = 1000
DET_TOL = 1e-9


def _gauss_reduce(basis: np.ndarray) -> np.ndarray:
    """Lagrange-Gauss reduction by integer column operations."""
    b = basis.astype(float).copy()
    for _ in range(MAX_REDUCTION_SWAPS):
        n0 = b[0, 0] ** 2 + b[1, 0] ** 2
        n1 = b[0, 1] ** 2 + b[1, 1] ** 2
        if n0 > n1:
            # swap with a sign flip to stay determinant +1
            b = np.column_stack((b[:, 1], -b[:, 0]))
            n0 = n1
        m = round((b[0, 0] * b[0, 1] + b[1, 0] * b[1, 1]) / n0)
        if m == 0:
            return b
        b[:, 1] -= m * b[:, 0]
    raise DegenerateBasis("column reduction did not terminate")


@dataclass(frozen=True)
class Sl2LatticePoint:
    """A reduced determinant-one basis with its cached shortest vector length."""
    basis: np.ndarray
    shortest_len: float

    @classmethod
    def from_basis(cls, basis) -> "Sl2LatticePoint":
        basis = np.asarray(basis, dtype=float)
        det = basis[0, 0] * basis[1, 1] - basis[0, 1] * basis[1, 0]
        if abs(det - 1.0) > DET_TOL:
            raise ValueError(f"basis determinant {det} is not 1")
        red = _gauss_reduce(basis)
        short = float(min(np.linalg.norm(red[:, 0]), np.linalg.norm(red[:, 1])))
        return cls(red, short)

    @classmethod
    def identity(cls) -> "Sl2LatticePoint":
        return cls.from_basis(np.eye(2))


def sl2_step(point: Sl2LatticePoint, g) -> Sl2LatticePoint:
    """Move the lattice by the group element and re-reduce the basis."""
    g = np.asarray(g, dtype=float)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det - 1.0) > DET_TOL:
        raise ValueError(f"step matrix determinant {det} is not 1")
    return Sl2LatticePoint.from_basis(g @ point.basis)


@dataclass(frozen=True)
class SchottkyPoint:
    """A freely reduced word with the distance of the basepoint's image from the core.

    ``prefix_matrices`` stores the disk-model products of every word prefix so
    a step is O(1): appending a letter pushes one product, a cancellation pops.
    """
    group: SchottkyGroup
    word: tuple[str, ...]
    prefix_matrices: tuple
    core_distance: float

    @classmethod
    def basepoint(cls, group: SchottkyGroup | None = None) -> "SchottkyPoint":
        return cls(group or SchottkyGroup(), (), (), 0.0)


def schottky_step(point: SchottkyPoint, letter: str) -> SchottkyPoint:
    """Append one generator letter (right action) and freely reduce."""
    g = point.group
    if point.word and point.word[-1] == INVERSE[letter]:
        word = point.word[:-1]
        stack = point.prefix_matrices[:-1]
    else:
        word = point.word + (letter,)
        top = point.prefix_matrices[-1] if point.prefix_matrices else np.eye(2, dtype=complex)
        stack = point.prefix_matrices + (top @ g.disk[letter],)
    dist = 0.0
    if stack:   # distance of the basepoint's image from the core ball
        dist = max(0.0, 2.0 * math.asinh(abs(stack[-1][0, 1])) - g.core_radius)
    return SchottkyPoint(g, word, stack, dist)


def free_uniform_law() -> StepLaw:
    return StepLaw(tuple((GeneratorId(s, INVERSE[s]), 0.25) for s in LETTERS))


class TestLattice:
    def test_boundary_is_box_edge(self):
        m = build_lattice_model(2, 3)
        assert m.boundary[m.index[(3, 0)]]
        assert m.boundary[m.index[(3, -3)]]
        assert not m.boundary[m.index[(2, 2)]]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("radius", [2, 3, 4, 5])
    def test_boundary_mask_is_largest_coordinate_at_radius(self, d, radius):
        m = build_lattice_model(d, radius)
        edge = [max(abs(c) for c in (x if d == 2 else (x,))) == radius
                for x in m.states]
        assert m.boundary.dtype == bool
        assert m.boundary.tolist() == edge

    def test_counting_measure_flagged_infinite(self):
        m = build_lattice_model(1, 5)
        assert m.reference.total_is_infinite
        assert m.reference(0) == 1.0

    def test_d2_srw_return_probability(self):
        m = build_lattice_model(2, 6)
        s = evolve(m, (0, 0), srw_law(2), 2)
        assert s.snapshot(2).mass_at((0, 0)) == pytest.approx(0.25)

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError):
            build_lattice_model(1, 1)


class TestFunnelChain:
    def test_constant_neck_rows(self):
        spec = FunnelChainSpec(neck_prefix=(), tail=("constant", 1.0),
                               step_scale=0.25, truncation_size=10)
        m = build_funnel_chain(spec)
        assert m.rows[5] == {6: 0.25, 4: 0.25, 5: 0.5}
        assert m.rows[0] == {1: 0.25, 0: 0.75}

    def test_detailed_balance_holds(self):
        spec = FunnelChainSpec(neck_prefix=(0.5, 0.25),
                               tail=("geometric", 1.0, 0.5),
                               truncation_size=30)
        m = build_funnel_chain(spec)
        assert verify_reversibility(m).passes

    def test_geometric_tail_neck_values(self):
        spec = FunnelChainSpec(neck_prefix=(), tail=("geometric", 1.0, 0.5))
        assert spec.neck(1) == 1.0
        assert spec.neck(4) == 0.125

    def test_prefix_overrides_tail(self):
        spec = FunnelChainSpec(neck_prefix=(0.9,), tail=("constant", 0.1))
        assert spec.neck(1) == 0.9
        assert spec.neck(2) == 0.1

    def test_large_step_scale_rejected(self):
        spec = FunnelChainSpec(neck_prefix=(), tail=("constant", 1.0),
                               step_scale=0.3)
        with pytest.raises(SpecInvalid):
            build_funnel_chain(spec)

    def test_nonpositive_neck_rejected(self):
        spec = FunnelChainSpec(neck_prefix=(0.0,), tail=("constant", 1.0))
        with pytest.raises(SpecInvalid):
            build_funnel_chain(spec)

    def test_rows_are_stochastic(self):
        spec = FunnelChainSpec(neck_prefix=(), tail=("geometric", 1.0, 0.5),
                               truncation_size=40)
        m = build_funnel_chain(spec)
        for row in m.rows.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


class TestBooleMap:
    def test_jacobian_sum_is_one(self):
        for x in (0.3, 1.7, -2.4):
            assert preimage_jacobian_sum(x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-50, 50))
    def test_jacobian_sum_is_one_everywhere(self, x):
        assert preimage_jacobian_sum(x) == pytest.approx(1.0, abs=1e-9)

    def test_orbit_report_shape(self):
        spec = BooleOrbitSpec(start_points=(0.7,), horizon=1000)
        rep = boole_orbit(spec)
        rec = rep.orbits[0]
        assert rec.occupation_curve[-1][0] == 1000
        assert 0.0 <= rec.final_fraction <= 1.0
        assert rec.drift_bound < 1e-6

    def test_occupation_fraction_decays(self):
        spec = BooleOrbitSpec(start_points=(0.7,), horizon=100_000)
        rec = boole_orbit(spec).orbits[0]
        frac = dict(rec.occupation_curve)
        assert frac[100_000] < frac[1000]

    def test_revisits_recorded(self):
        spec = BooleOrbitSpec(start_points=(0.7,), horizon=50_000)
        rec = boole_orbit(spec).orbits[0]
        assert any(n > 1000 for n in rec.revisit_times)

    def test_start_at_pole_rejected(self):
        with pytest.raises(ValueError):
            BooleOrbitSpec(start_points=(0.0,), horizon=10).validate()


def random_sl2z(rng, n):
    """Random integer matrices of determinant one, via products of the
    standard shears."""
    s = np.array([[1, 1], [0, 1]])
    t = np.array([[1, 0], [1, 1]])
    out = []
    for _ in range(n):
        m = np.eye(2, dtype=int)
        for k in rng.integers(-3, 4, size=4):
            m = m @ np.linalg.matrix_power(s if rng.random() < 0.5 else t,
                                           int(k))
        out.append(m)
    return out


class TestSl2Lattice:
    def test_identity_has_unit_shortest(self):
        assert Sl2LatticePoint.identity().shortest_len == pytest.approx(1.0)

    def test_shear_reduces_back(self):
        p = Sl2LatticePoint.from_basis([[1.0, 0.7], [0.0, 1.0]])
        assert p.shortest_len == pytest.approx(1.0)
        cols = {tuple(np.round(p.basis[:, j], 6)) for j in (0, 1)}
        assert (1.0, 0.0) in cols
        assert (-0.3, 1.0) in cols

    def test_reduction_idempotent(self):
        rng = np.random.default_rng(0)
        for g in random_sl2z(rng, 50):
            p = Sl2LatticePoint.from_basis(g.astype(float))
            q = Sl2LatticePoint.from_basis(p.basis)
            assert np.allclose(p.basis, q.basis)
            assert p.shortest_len == pytest.approx(q.shortest_len)

    def test_shortest_len_is_coset_invariant(self):
        rng = np.random.default_rng(1)
        base = np.array([[1.3, 0.4], [0.5, 0.923076923076923]])
        base /= math.sqrt(np.linalg.det(base))
        p0 = Sl2LatticePoint.from_basis(base)
        for g in random_sl2z(rng, 100):
            p = Sl2LatticePoint.from_basis(base @ g.astype(float))
            assert p.shortest_len == pytest.approx(p0.shortest_len, abs=1e-9)

    def test_step_shrinks_shortest_under_diagonal_flow(self):
        g = np.diag([3.0, 1.0 / 3.0])
        p = Sl2LatticePoint.identity()
        p = sl2_step(p, g)
        assert p.shortest_len == pytest.approx(1.0 / 3.0)

    def test_step_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            sl2_step(Sl2LatticePoint.identity(), np.diag([2.0, 1.0]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        bases = np.stack([g.astype(float) for g in random_sl2z(rng, 40)])
        a, b, c, d = red = reduce_batch(components(bases))
        lens = shortest_lengths(red)
        assert np.allclose(a * d - b * c, 1.0)
        for i in range(len(bases)):
            p = Sl2LatticePoint.from_basis(bases[i])
            assert lens[i] == pytest.approx(p.shortest_len, abs=1e-9)

    def test_tie_walker_reduces(self):
        """A walker whose reduction ends in a +-1/2 tie: dot/n0 flips sign
        without shrinking, so the batch loop never reaches m == 0.  Its
        retention must still match the scalar walk on the same letters."""
        spec = EnsembleSpec(chart="sl2-lattice", mu=free_uniform_law(),
                            n_walkers=1, n_steps=18, master_seed=0,
                            walker_offset=9630,
                            snapshot_schedule=tuple(range(19)),
                            proxy_thresholds=(0.05, 0.2))
        group = SchottkyGroup()
        p = Sl2LatticePoint.identity()
        lengths = [p.shortest_len]
        for k in np.concatenate(list(_letter_blocks(spec)))[:, 0]:
            p = sl2_step(p, group.halfplane[LETTERS[k]])
            lengths.append(p.shortest_len)
        for r in run_ensemble(spec).rows:
            assert r.retained_fraction == float(lengths[r.n] >= r.threshold)

    def test_unreduced_basis_still_raises(self):
        bases = np.array([[[5.0, 8.0], [3.0, 5.0]]])   # needs several steps
        with pytest.raises(DegenerateBasis):
            reduce_batch(components(bases), max_iter=1)
        with pytest.raises(DegenerateBasis):
            reduce_stack(bases.copy(), max_iter=1)
        red = reduce_batch(components(bases), max_iter=4)
        assert red == pytest.approx((1.0, 0.0, 0.0, 1.0))

    def test_reduction_matches_stack_oracle(self):
        """The active-set reduction equals reducing every walker on every
        pass, entry for entry, on bases needing up to many passes."""
        rng = np.random.default_rng(6)
        bases = np.stack([g.astype(float) for g in random_sl2z(rng, 200)])
        bases = bases @ np.diag([1.7, 1 / 1.7])
        red = reduce_batch(components(bases))
        assert all(np.array_equal(x, y) for x, y in
                   zip(red, components(reduce_stack(bases.copy()))))


class TestSchottky:
    def test_default_group_validates(self):
        g = SchottkyGroup()
        assert g.core_radius == pytest.approx(math.log(3.0))

    def test_generator_translation_lengths(self):
        a, b = default_generator_matrices()
        assert translation_length(a) == pytest.approx(2 * math.log(3.0))
        assert translation_length(b) == pytest.approx(2 * math.log(3.0))

    def test_disk_generators_unitary_signature(self):
        g = SchottkyGroup()
        for s in LETTERS:
            m = g.disk[s]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < 1e-9
            # SU(1,1) shape: second row is the conjugate-swap of the first
            assert abs(m[1, 1] - np.conj(m[0, 0])) < 1e-9
            assert abs(m[1, 0] - np.conj(m[0, 1])) < 1e-9

    def test_free_reduction_cancels(self):
        p = SchottkyPoint.basepoint()
        p = schottky_step(p, "a")
        p = schottky_step(p, "b")
        p = schottky_step(p, "B")
        assert p.word == ("a",)
        q = schottky_step(p, "A")
        assert q.word == ()
        assert q.core_distance == 0.0

    def test_word_length_changes_by_one(self):
        rng = np.random.default_rng(3)
        p = SchottkyPoint.basepoint()
        for _ in range(200):
            letter = LETTERS[rng.integers(4)]
            q = schottky_step(p, letter)
            assert abs(len(q.word) - len(p.word)) == 1
            p = q

    def test_core_distance_zero_at_basepoint(self):
        assert SchottkyPoint.basepoint().core_distance == 0.0

    def test_core_distance_grows_along_powers(self):
        p = SchottkyPoint.basepoint()
        dists = []
        for _ in range(5):
            p = schottky_step(p, "a")
            dists.append(p.core_distance)
        assert all(b > a for a, b in zip(dists, dists[1:]))

    def test_word_length_drift_near_half(self):
        rng = np.random.default_rng(4)
        n, walkers, total = 400, 200, 0
        for _ in range(walkers):
            p = SchottkyPoint.basepoint()
            for letter in rng.choice(LETTERS, size=n):
                p = schottky_step(p, str(letter))
            total += len(p.word)
        assert total / (walkers * n) == pytest.approx(0.5, abs=0.05)

    def test_batch_matches_scalar_walk(self):
        """step_batch + core_distances against the freely reduced scalar walk
        on the same letters."""
        group = SchottkyGroup()
        gens = generator_components([group.disk[s] for s in LETTERS])
        rng = np.random.default_rng(5)
        letters = rng.integers(4, size=(30, 60))
        row = (np.ones(30), np.zeros(30), np.zeros(30), np.zeros(30))
        points = [SchottkyPoint.basepoint(group) for _ in range(30)]
        for t in range(60):
            row = step_batch(row, gens, letters[:, t])
            points = [schottky_step(p, LETTERS[k])
                      for p, k in zip(points, letters[:, t])]
            dists = core_distances(group, row)
            for d, p in zip(dists, points):
                assert d == pytest.approx(p.core_distance, abs=1e-6)

    def test_elliptic_generator_rejected(self):
        theta = 0.3
        rot = np.array([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
        with pytest.raises(PingPongViolation):
            SchottkyGroup(a=rot)

    def test_overlapping_disks_rejected(self):
        a = np.array([[math.cosh(0.05), math.sinh(0.05)],
                      [math.sinh(0.05), math.cosh(0.05)]])
        with pytest.raises(PingPongViolation):
            SchottkyGroup(a=a)
