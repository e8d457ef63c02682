import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fpnreg.fourier as fourier
from fpnreg.cayley import sigma_certificate
from fpnreg.errors import InputError
from fpnreg.fourier import (
    DenseFunction,
    _pass_loop,
    Spectrum,
    convolve,
    dft,
    full_spectrum,
    identity_suite,
    idft,
    spectrum_from_dict,
    spectrum_to_dict,
)
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis, localize

from helpers import ORACLE_MAX_N, PRIMES, convolve_direct, dft_naive, peak_bytes, random_subspace, run_peak_script

SP32 = SpaceDescriptor(3, 2)
SP33 = SpaceDescriptor(3, 3)
V32 = SubspaceBasis.full(SP32)
LINE = SubspaceBasis.from_rows(SP32, [[1, 0]])


def random_function(space, gen, H=None):
    size = space.N if H is None else H.size
    return DenseFunction(space, gen.uniform(-1, 1, size=size), H)


class TestDft:
    def test_constant_function(self):
        s = dft(DenseFunction.constant(SP32, 1.0), V32)
        assert abs(s.value_at(0) - 1) < 1e-12
        assert s.sup_nontrivial() < 1e-12

    def test_delta_flat_spectrum(self):
        sp31 = SpaceDescriptor(3, 1)
        s = dft(DenseFunction.from_subset(DenseSubset.from_members(sp31, [0])), SubspaceBasis.full(sp31))
        assert np.allclose(s.values, 1 / 3)

    def test_line_indicator(self):
        s = dft(DenseFunction.from_subset(DenseSubset.from_members(SP32, [0, 1, 2])), V32)
        for xi in range(9):
            want = 1 / 3 if xi % 3 == 0 else 0.0  # digit 0 of xi vanishes
            assert abs(s.value_at(xi) - want) < 1e-12

    def test_support_mismatch(self):
        f = DenseFunction(SP32, np.ones(3), LINE)
        other = SubspaceBasis.from_rows(SP32, [[0, 1]])
        with pytest.raises(InputError):
            dft(f, other)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_matches_naive_oracle(self, seed):
        gen = np.random.default_rng(seed)
        space = SpaceDescriptor(int(gen.choice([3, 5])), int(gen.integers(1, 4)))
        H = random_subspace(space, gen)
        f = random_function(space, gen, H)
        fast = dft(f, H)
        slow = dft_naive(f, H)
        assert np.array_equal(fast.freqs, slow.freqs)
        assert np.abs(fast.values - slow.values).max() < 1e-10

    def test_full_vs_subspace_path(self):
        gen = np.random.default_rng(3)
        f = random_function(SP33, gen)
        a = dft(f, SubspaceBasis.full(SP33))
        b = dft(DenseFunction(SP33, f.values, SubspaceBasis.full(SP33)), SubspaceBasis.full(SP33))
        assert np.abs(a.values - b.values).max() < 1e-14

    def test_large_prime_round_trip(self):
        for p in (11, 13):
            space = SpaceDescriptor(p, 2)
            gen = np.random.default_rng(p)
            f = DenseFunction(space, gen.uniform(-1, 1, size=space.N))
            back = idft(dft(f, SubspaceBasis.full(space)))
            assert np.abs(back.values - f.values).max() < 1e-10

    def test_full_spectrum_alignment(self):
        gen = np.random.default_rng(4)
        f = random_function(SP33, gen)
        flat = full_spectrum(SP33, f.values)
        s = dft(f, SubspaceBasis.full(SP33))
        for xi in range(27):
            neg = int(SP33.neg(xi))
            stored = flat[xi] if xi < len(flat) else flat[neg].conj()
            assert abs(stored - s.value_at(xi)) < 1e-12


class TestPassLoop:
    """The pass loop against np.fft.fftn over the (p,)*dim + (B,) tensor."""

    @staticmethod
    def reference(x, dim, inverse=False):
        fft = np.fft.ifftn if inverse else np.fft.fftn
        out = fft(x, axes=tuple(range(dim))) * (x.size // x.shape[-1] if inverse else 1)
        return np.moveaxis(out, -1, 0).reshape(x.shape[-1], -1)

    @given(
        st.sampled_from([3, 5, 7, 11, 13]),
        st.integers(0, 4),
        st.integers(1, 6),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    @example(p=3, dim=0, batch=4, real=True, seed=0)
    @example(p=7, dim=1, batch=1, real=True, seed=1)
    @example(p=13, dim=1, batch=3, real=False, seed=2)
    def test_matches_fftn(self, p, dim, batch, real, seed):
        gen = np.random.default_rng(seed)
        x = gen.uniform(-1, 1, size=(p,) * dim + (batch,))
        want = self.reference(x, dim)
        got = _pass_loop(x, p, dim, real=real)
        stored = (p + 1) // 2 * p ** (dim - 1) if dim else 1
        assert got.shape == (batch, stored if real else p**dim)
        assert np.abs(got - want[:, : got.shape[1]]).max(initial=0) < 1e-9
        z = x if real else x + 1j * gen.uniform(-1, 1, size=x.shape)
        back = _pass_loop(z, p, dim, real=real, inverse=True)
        assert np.abs(back - self.reference(z, dim, inverse=True)[:, : back.shape[1]]).max() < 1e-9

    def test_bool_input_is_a_real_entry(self):
        gen = np.random.default_rng(7)
        mask = gen.random((5,) * 3 + (2,)) < 0.5
        got = _pass_loop(mask, 5, 3, real=True)
        assert np.abs(got - self.reference(mask.astype(float), 3)[:, :75]).max() < 1e-9

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_real_entry_is_batch_invariant(self, p):
        # every 0/1 vector of length p gives the same bits alone (a one-row
        # first pass), as a (p, 1) column, in pairs and in the batch of all 2**p
        vecs = (np.arange(2**p)[:, None] >> np.arange(p) & 1).astype(bool)
        batch = _pass_loop(vecs.T, p, 1, real=True)
        for got in (
            np.concatenate([_pass_loop(v, p, 1, real=True) for v in vecs]),
            np.concatenate([_pass_loop(v[:, None], p, 1, real=True) for v in vecs]),
            np.concatenate([_pass_loop(vecs[a : a + 2].T, p, 1, real=True) for a in range(0, 2**p, 2)]),
        ):
            assert np.array_equal(got, batch)
        # at dim 2 a lone column already makes a p-row first pass
        cols = np.random.default_rng(p).random((p * p, 40)) < 0.5
        batch = _pass_loop(cols, p, 2, real=True)
        for width in (1, 3):
            got = np.concatenate([_pass_loop(cols[:, a : a + width], p, 2, real=True) for a in range(0, 40, width)])
            assert np.array_equal(got, batch)

    def test_no_aliasing_across_calls(self):
        gen = np.random.default_rng(8)
        shapes = [(3, 4, 2, True), (5, 2, 3, False), (3, 4, 2, True), (7, 1, 1, True), (5, 2, 3, False)]
        inputs = {s: gen.uniform(-1, 1, size=s[0] ** s[1] * s[2]) for s in set(shapes)}
        outs = []
        for p, dim, batch, real in shapes:
            x = inputs[p, dim, batch, real]
            before = x.copy()
            outs.append(_pass_loop(x, p, dim, real=real))
            assert np.array_equal(x, before)
            assert not np.shares_memory(outs[-1], x)
        assert np.array_equal(outs[0], outs[2]) and np.array_equal(outs[1], outs[4])
        for i in range(len(outs)):
            for j in range(i):
                assert not np.shares_memory(outs[i], outs[j])

    def test_full_spectrum_stores_the_leading_half(self):
        gen = np.random.default_rng(9)
        for p, n in [(3, 1), (5, 1), (3, 4), (7, 3), (13, 2)]:
            space = SpaceDescriptor(p, n)
            mask = gen.random(space.N) < 0.4
            flat = full_spectrum(space, mask)
            want = np.fft.fftn(mask.reshape((p,) * n).astype(float)).reshape(-1) / space.N
            assert len(flat) == (p + 1) // 2 * p ** (n - 1)
            assert np.abs(flat - want[: len(flat)]).max() < 1e-12


class TestSpectrumPlanes:
    """The plane path (one leading-frequency plane of the stored half at a
    time) against full_spectrum, bit for bit."""

    # chunks of 2 and 4 rows leave a last row of its own at odd plane sizes
    @pytest.mark.parametrize("chunk", [None, 2, 4])
    @pytest.mark.parametrize("p", PRIMES)
    def test_planes_are_full_spectrum_slices(self, p, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(fourier, "_PLANE_ROWS", chunk)
        gen = np.random.default_rng(p)
        for n in range(1, ORACLE_MAX_N[p] + 1):
            space = SpaceDescriptor(p, n)
            size = space.N // p
            for density in (0.0, 0.3, 1.0):
                mask = gen.random(space.N) < density
                full = full_spectrum(space, mask)
                for t in range((p + 1) // 2):
                    plane = fourier._spectrum_plane(space, mask, t)
                    assert plane.tobytes() == full[t * size : (t + 1) * size].tobytes(), (n, density, t)
                sup = sigma_certificate(DenseSubset(space, mask), 0.5, 0.5).fourier_sup
                assert sup.hex() == float(np.abs(full[1:]).max()).hex(), (n, density)


class TestSpectrum:
    def test_coset_well_defined(self):
        gen = np.random.default_rng(5)
        A = DenseSubset(SP33, gen.random(27) < 0.5)
        H = SubspaceBasis.from_rows(SP33, [[1, 0, 0], [0, 1, 0]])
        s = dft(DenseFunction.from_subset(A, H), H)
        perp = H.annihilator()
        for xi in range(27):
            shifted = int(SP33.add(xi, int(perp.elements()[-1])))
            assert abs(s.value_at(xi) - s.value_at(shifted)) < 1e-12

    def test_serialization_round_trip(self):
        gen = np.random.default_rng(6)
        H = SubspaceBasis.from_rows(SP33, [[1, 0, 0]])
        s = dft(random_function(SP33, gen, H), H)
        back = spectrum_from_dict(spectrum_to_dict(s))
        assert back.base == s.base
        assert np.array_equal(back.freqs, s.freqs)
        assert np.abs(back.values - s.values).max() == 0.0

    def test_misordered_entries_rejected(self):
        # value_at reads an entry by position, so reversed entries would
        # answer with another frequency's value
        s = dft(random_function(SP32, np.random.default_rng(6)), V32)
        d = spectrum_to_dict(s)
        d["entries"] = d["entries"][::-1]
        with pytest.raises(InputError):
            spectrum_from_dict(d)


class TestIdft:
    def test_round_trip_random(self):
        gen = np.random.default_rng(0)
        f = random_function(SP33, gen)
        back = idft(dft(f, SubspaceBasis.full(SP33)))
        assert np.abs(back.values - f.values).max() <= 1e-10

    def test_zero_spectrum(self):
        s = Spectrum(V32, np.arange(9, dtype=np.int64), np.zeros(9, dtype=complex))
        assert np.abs(idft(s).values).max() == 0.0

    def test_dc_only(self):
        freqs = V32.annihilator().coset_system().reps
        vals = np.zeros(9, dtype=complex)
        vals[0] = 2.5
        f = idft(Spectrum(V32, freqs, vals))
        assert np.abs(f.values - 2.5).max() < 1e-12

    def test_subspace_round_trip(self):
        gen = np.random.default_rng(1)
        H = SubspaceBasis.from_rows(SP33, [[1, 0, 0], [0, 1, 2]])
        f = random_function(SP33, gen, H)
        back = idft(dft(f, H))
        assert back.support == H
        assert np.abs(back.values - f.values).max() <= 1e-10


class TestConvolve:
    def test_delta_is_scaled_identity(self):
        gen = np.random.default_rng(2)
        H = SubspaceBasis.from_rows(SP33, [[1, 0, 0], [0, 1, 0]])
        f = random_function(SP33, gen, H)
        delta = DenseFunction.from_subset(DenseSubset.from_members(SP33, [0]), H)
        out = convolve(f, delta, H)
        assert np.abs(out.values - f.values / H.size).max() < 1e-12

    def test_constants(self):
        one = DenseFunction.constant(SP33, 1.0, None)
        out = convolve(one, one, SubspaceBasis.full(SP33))
        assert np.abs(out.values - 1).max() < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_matches_direct_oracle(self, seed):
        gen = np.random.default_rng(seed)
        space = SpaceDescriptor(3, int(gen.integers(1, 4)))
        H = random_subspace(space, gen)
        f = random_function(space, gen, H)
        g = random_function(space, gen, H)
        fast = convolve(f, g, H)
        slow = convolve_direct(f, g, H)
        assert np.abs(fast.values - slow).max() < 1e-10

    def test_spectral_product_identity(self):
        gen = np.random.default_rng(8)
        f = random_function(SP32, gen)
        g = random_function(SP32, gen)
        sf, sg = dft(f, V32), dft(g, V32)
        sc = dft(convolve(f, g, V32), V32)
        assert np.abs(sc.values - sf.values * sg.values).max() <= 1e-10


class TestIdentitySuite:
    def test_constants_exact(self):
        one = DenseFunction.constant(SP32, 1.0)
        rep = identity_suite(one, one, V32)
        assert rep.max_deviation() <= 1e-12

    def test_delta_parseval(self):
        H = V32
        delta = DenseFunction.from_subset(DenseSubset.from_members(SP32, [0]))
        s = dft(delta, H)
        # E f^2 = 1/|H| and sum |fhat|^2 = |H| (1/|H|)^2
        assert abs((np.abs(s.values) ** 2).sum() - 1 / 9) < 1e-12

    def test_hundred_random_f5(self):
        space = SpaceDescriptor(5, 3)
        gen = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            H = random_subspace(space, gen)
            f = random_function(space, gen, H)
            g = random_function(space, gen, H)
            worst = max(worst, identity_suite(f, g, H).max_deviation())
        assert worst <= 1e-9

    def test_parseval_over_full_subspace_lattice(self):
        # every subspace of F_3^2: {0}, the four lines, and V itself
        lattice = [SubspaceBasis.zero(SP32), V32] + [
            SubspaceBasis.from_vectors(SP32, [v]) for v in (1, 3, 4, 5)
        ]
        assert len({h.rows.tobytes() for h in lattice}) == 6
        gen = np.random.default_rng(11)
        for H in lattice:
            for _ in range(10):
                f = random_function(SP32, gen, H)
                s = dft(f, H)
                lhs = float(np.mean(f.values**2))
                rhs = float((np.abs(s.values) ** 2).sum())
                assert abs(lhs - rhs) <= 1e-9

    def test_translation_covariance_and_dc(self):
        gen = np.random.default_rng(10)
        A = DenseSubset(SP33, gen.random(27) < 0.5)
        H = SubspaceBasis.from_rows(SP33, [[1, 0, 0], [0, 0, 1]])
        v = 7
        v2 = int(SP33.add(v, int(H.elements()[4])))
        sv = dft(DenseFunction.from_subset(localize(A, H, v), H), H)
        sv2 = dft(DenseFunction.from_subset(localize(A, H, v2), H), H)
        assert np.abs(np.abs(sv.values) - np.abs(sv2.values)).max() < 1e-12
        cnt = localize(A, H, v).card
        for xi in H.annihilator().elements():
            assert abs(sv.value_at(int(xi)) - cnt / H.size) < 1e-12


# Runs in a fresh interpreter (helpers.PEAK_PRELUDE supplies measure).  The
# mask comes from uint8 draws, with no N-sized float temporary.
_FULL_GROUP_PEAK_SCRIPT = """
import numpy as np
from fpnreg.cayley import edge_count_fourier, sigma_certificate
from fpnreg.randmodel import fourier_sup_report
from fpnreg.threeap import count_3aps_fourier
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor
ops = {
    "sigma_certificate": lambda A: sigma_certificate(A, 0.5, 0.5),
    "fourier_sup_report": fourier_sup_report,
    "edge_count_fourier": lambda A: edge_count_fourier(A, A, A),
    "count_3aps_fourier": count_3aps_fourier,
}
op = ops[sys.argv[1]]
op(DenseSubset.full(SpaceDescriptor(5, 2)))
space = SpaceDescriptor(int(sys.argv[2]), int(sys.argv[3]))
bits = np.random.default_rng(0).integers(0, 2, size=space.N, dtype=np.uint8)
A = DenseSubset(space, bits.view(bool))
_, reading = measure(lambda: op(A))
print(json.dumps({"N": space.N, **reading}))
"""


_FULL_GROUP_BUDGETS = [
    ("sigma_certificate", 12, 12),
    ("fourier_sup_report", 12, 12),
    ("edge_count_fourier", 16, 16),
    ("count_3aps_fourier", 18, 10),
]


@pytest.mark.parametrize(
    "op, p, n, budget",
    [(op, 5, 10, at5) for op, at5, _ in _FULL_GROUP_BUDGETS]
    + [(op, 13, 6, at13) for op, _, at13 in _FULL_GROUP_BUDGETS],
)
def test_full_group_memory_budget(op, p, n, budget):
    """The full-group entry points build the stored half one plane of N/p
    entries at a time: on a density-1/2 set they peak at most budget * N
    bytes above the mask.  The count holds up to five planes (80 N/p bytes),
    so its budget is smaller at p = 13."""
    out = run_peak_script(_FULL_GROUP_PEAK_SCRIPT, op, p, n)
    assert peak_bytes(out) <= budget * out["N"]
