import math

import numpy as np
import pytest

from kickedtop import measures, symspace, tomo
from kickedtop.symspace import BlochPoint
from kickedtop.tomo import ReadoutModel

from conftest import expectations_of


def kicked_top_register_state(kappa0: float, steps: int, point=BlochPoint(0.0, 0.0)):
    u = symspace.floquet(1.5, kappa0)
    psi = symspace.evolve(u, symspace.coherent_state(1.5, point), steps)
    vec = symspace.symmetric_to_qubits(psi)
    return np.outer(vec, vec.conj())


class TestReadoutModel:
    def test_bundled_values(self):
        model = tomo.bundled_readout_model()
        assert model.f0 == (0.98, 0.98, 0.96)
        assert model.f1 == (0.92, 0.94, 0.87)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ReadoutModel(f0=(0.5, 0.9, 0.9), f1=(0.5, 0.9, 0.9))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ReadoutModel(f0=(0.0, 0.9, 0.9), f1=(0.9, 0.9, 0.9))

    def test_correction_matrix_columns_sum_to_one(self):
        f = tomo.bundled_readout_model().correction_matrix()
        assert np.allclose(f.sum(axis=0), 1.0, atol=1e-12)

    def test_from_json_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"f0": [0.9, 0.9, 0.9], "f1": [0.8, 0.8, 0.8]}')
        model = ReadoutModel.from_json(path)
        assert model.f0 == (0.9, 0.9, 0.9)


class TestCorrectPopulations:
    def test_perfect_readout_is_identity(self):
        model = ReadoutModel(f0=(1.0, 1.0, 1.0), f1=(1.0, 1.0, 1.0))
        p = np.array([0.5, 0.1, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05])
        assert np.allclose(tomo.correct_populations(model, p), p, atol=1e-14)

    def test_single_qubit_hand_inverse(self):
        # 2x2 case worked by hand: F = [[0.9, 0.2], [0.1, 0.8]], det = 0.70
        model = ReadoutModel(f0=(0.9,), f1=(0.8,))
        p_int = tomo.correct_populations(model, np.array([0.85, 0.15]))
        assert np.allclose(p_int, [0.65 / 0.7, 0.05 / 0.7], atol=1e-10)

    def test_round_trip(self, rng):
        model = tomo.bundled_readout_model()
        f = model.correction_matrix()
        for _ in range(20):
            p = rng.random(8)
            p /= p.sum()
            assert np.max(np.abs(f @ tomo.correct_populations(model, p) - p)) < 1e-10

    def test_sum_preserved(self, rng):
        model = tomo.bundled_readout_model()
        p = rng.random(8)
        p /= p.sum()
        assert tomo.correct_populations(model, p).sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_sum(self):
        model = tomo.bundled_readout_model()
        with pytest.raises(ValueError):
            tomo.correct_populations(model, np.full(8, 0.2))

    def test_rejects_nan_population(self):
        p = np.full(8, 0.125)
        p[3] = math.nan
        with pytest.raises(ValueError, match="sum to 1"):
            tomo.correct_populations(tomo.bundled_readout_model(), p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_populations_outside_the_unit_interval(self):
        for bad in ([1e308, 1e308, -1e308] + [0.0] * 5, [1.5, -0.5] + [0.0] * 6):
            with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
                tomo.correct_populations(tomo.bundled_readout_model(), np.array(bad))


class TestProjectPsd:
    def test_valid_state_unchanged(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho = 0.6 * np.outer(v, v.conj()) + 0.4 * np.eye(4) / 4.0
        assert np.max(np.abs(tomo.project_psd(rho) - rho)) < 1e-12

    def test_hand_clipping_example(self):
        out = tomo.project_psd(np.diag([1.1, -0.1]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent(self, rng):
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (h + h.conj().T) / 2.0
        h = h / np.trace(h).real
        once = tomo.project_psd(h)
        twice = tomo.project_psd(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_output_is_state(self, rng):
        for _ in range(25):
            h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (h + h.conj().T) / 2.0
            h = h / np.trace(h).real
            out = tomo.project_psd(h)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out).min() >= -1e-14

    def test_matches_sorted_simplex_projection(self, rng):
        # oracle: the direct sort-based Euclidean projection onto the simplex
        for _ in range(50):
            lam = rng.standard_normal(6) * 0.4
            lam += (1.0 - lam.sum()) / 6.0
            u = np.sort(lam)[::-1]
            css = np.cumsum(u)
            k = np.nonzero(u - (css - 1.0) / np.arange(1, 7) > 0.0)[0][-1] + 1
            theta = (css[k - 1] - 1.0) / k
            expected = np.sort(np.clip(lam - theta, 0.0, None))
            out = tomo.project_psd(np.diag(lam))
            assert np.allclose(np.sort(np.linalg.eigvalsh(out)), expected, atol=1e-12)

    def test_beats_naive_clipping(self, rng):
        # redistribution preserves more fidelity to the unperturbed pure state
        # than clip-and-renormalize, sample by sample
        for _ in range(200):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            pure = np.outer(v, v.conj())
            h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (h + h.conj().T) / 2.0
            h *= 0.05 / np.linalg.norm(h)
            raw = pure + h
            raw /= np.trace(raw).real
            evals, evecs = np.linalg.eigh(raw)
            naive = (evecs * np.clip(evals, 0.0, None)) @ evecs.conj().T
            naive /= np.trace(naive).real
            f_proj = measures.fidelity(pure, tomo.project_psd(raw))
            f_naive = measures.fidelity(pure, naive)
            assert f_proj >= f_naive - 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValueError):
            tomo.project_psd(bad)


class TestReconstruct:
    def test_exact_expectations_identity(self, rng):
        for _ in range(5):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            rebuilt = tomo.reconstruct(expectations_of(rho))
            assert np.max(np.abs(rebuilt - rho)) < 1e-10

    def test_all_zeros_state(self):
        rho = np.zeros((8, 8), complex)
        rho[0, 0] = 1.0
        rebuilt = tomo.reconstruct(expectations_of(rho))
        assert np.max(np.abs(rebuilt - rho)) < 1e-12

    def test_ghz_reduced_entropy(self):
        v = np.zeros(8, complex)
        v[0] = 1.0 / math.sqrt(2.0)
        v[7] = 1.0j / math.sqrt(2.0)
        rho = np.outer(v, v.conj())
        rebuilt = tomo.reconstruct(expectations_of(rho))
        rho1 = tomo.partial_trace_3q(rebuilt, (0,))
        assert measures.linear_entropy(rho1) == pytest.approx(0.5, abs=1e-10)

    def test_noisy_reconstruction_fidelity(self, rng):
        rho = kicked_top_register_state(2.5, 5)
        table = expectations_of(rho)
        noisy = {
            label: (value if label == "III" else np.clip(value + 0.01 * rng.standard_normal(), -1, 1))
            for label, value in table.items()
        }
        rebuilt = tomo.reconstruct(noisy)
        assert measures.fidelity(rho, rebuilt) >= 0.98

    def test_missing_labels_rejected(self):
        table = expectations_of(np.eye(8) / 8.0)
        table.pop("XYZ")
        with pytest.raises(ValueError, match="missing"):
            tomo.reconstruct(table)

    def test_out_of_range_rejected(self):
        table = expectations_of(np.eye(8) / 8.0)
        table["XXX"] = 1.5
        with pytest.raises(ValueError, match="XXX"):
            tomo.reconstruct(table)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_rejected(self, value):
        table = expectations_of(np.eye(8) / 8.0)
        table["XXX"] = value
        with pytest.raises(ValueError, match="XXX"):
            tomo.reconstruct(table)


class TestPipelineMetrics:
    def test_identical_states(self):
        rho = kicked_top_register_state(0.5, 3)
        metrics = tomo.pipeline_metrics(rho, rho)
        assert metrics.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_state_matches_subspace_values(self):
        kappa0, steps = 1.2, 4
        rho = kicked_top_register_state(kappa0, steps)
        metrics = tomo.pipeline_metrics(rho, rho)
        u = symspace.floquet(1.5, kappa0)
        psi = symspace.evolve(u, symspace.coherent_state(1.5, BlochPoint(0.0, 0.0)), steps)
        s_sym = measures.linear_entropy(measures.reduced_state(psi, 1))
        c_sym = measures.concurrence(measures.reduced_state(psi, 2))
        assert metrics.mean_linear_entropy == pytest.approx(s_sym, abs=1e-10)
        assert metrics.mean_concurrence == pytest.approx(c_sym, abs=1e-10)
        assert np.allclose(metrics.linear_entropies, s_sym, atol=1e-10)

    def test_asymmetric_product_state(self):
        vec = np.zeros(8, complex)
        vec[1] = 1.0  # |001>
        rho = np.outer(vec, vec.conj())
        metrics = tomo.pipeline_metrics(rho, rho)
        assert metrics.mean_linear_entropy == pytest.approx(0.0, abs=1e-12)
        assert metrics.mean_concurrence == pytest.approx(0.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            tomo.pipeline_metrics(np.eye(4) / 4.0, np.eye(8) / 8.0)

    def test_stack_equals_one_pair_calls(self, rng):
        measured, theory = [], []
        for step, rank in enumerate((1, 2, 3, 8) * 3):
            vecs = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
            rho = vecs @ vecs.conj().T
            measured.append(rho / np.trace(rho).real)
            theory.append(kicked_top_register_state(0.9, step))
        stacked = tomo.pipeline_metrics(np.array(measured), np.array(theory))
        assert stacked == [tomo.pipeline_metrics(e, t) for e, t in zip(measured, theory)]
        assert tomo.pipeline_metrics(np.empty((0, 8, 8)), np.empty((0, 8, 8))) == []
        with pytest.raises(ValueError):
            tomo.pipeline_metrics(np.array(measured), np.array(theory[:-1]))

    def test_pair_concurrences_equal_one_row_calls(self, rng):
        for rank in (1, 2, 3, 8) * 10:
            vecs = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
            rho = vecs @ vecs.conj().T
            rho /= np.trace(rho).real
            metrics = tomo.pipeline_metrics(rho, rho)
            assert metrics.concurrences == tuple(
                measures.concurrence(tomo.partial_trace_3q(rho, pair))
                for pair in ((0, 1), (1, 2), (0, 2))
            )


class TestCsvIo:
    def test_populations_round_trip(self, tmp_path):
        path = tmp_path / "pops.csv"
        header = "step," + ",".join(f"p{i:03b}" for i in range(8))
        rows = ["0," + ",".join(str(v) for v in [0.5, 0.1, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05])]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        loaded = tomo.read_populations_csv(path)
        assert loaded[0][0] == 0
        assert loaded[0][1][0] == 0.5

    def test_populations_header_checked(self, tmp_path):
        path = tmp_path / "pops.csv"
        path.write_text("step,a,b\n0,1,2\n")
        with pytest.raises(ValueError):
            tomo.read_populations_csv(path)

    def test_expectations_grouped_by_step(self, tmp_path):
        path = tmp_path / "exp.csv"
        path.write_text("step,label,value\n0,III,1.0\n0,ZZZ,0.5\n1,III,1.0\n")
        tables = tomo.read_expectations_csv(path)
        assert set(tables) == {0, 1}
        assert tables[0]["ZZZ"] == 0.5
