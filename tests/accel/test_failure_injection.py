"""Failure injection: the verification harness must detect corruption.

A verification suite that never fails is untested itself.  These tests
corrupt one piece of the deployed model at a time and assert that
``verify_stack`` (or the specific equivalence check) flags exactly the
expected boundary.
"""

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, AcceleratorSimulator, ZCU102
from repro.quant import convert_to_integer


@pytest.fixture
def deployed(trained_quant_model, tiny_task):
    _, _, dev, _ = tiny_task
    batch = dev.full_batch()
    engine = convert_to_integer(trained_quant_model)
    return engine, batch.input_ids[:4], batch.attention_mask[:4]


class TestWeightCorruption:
    def test_flipped_weight_changes_functional_output(self, deployed):
        engine, ids, mask = deployed
        baseline = engine.forward(ids, mask)
        # Corrupt one weight code of FFN1 in layer 0 (stay in 4-bit range).
        original = engine.layers[0].ffn1.weight_codes[0, 0]
        engine.layers[0].ffn1.weight_codes[0, 0] = -original if original else 7
        engine.layers[0].ffn1.invalidate_cache()  # in-place edit of frozen codes
        corrupted = engine.forward(ids, mask)
        engine.layers[0].ffn1.weight_codes[0, 0] = original
        engine.layers[0].ffn1.invalidate_cache()
        assert not np.array_equal(baseline, corrupted)

    def test_pe_array_tracks_corruption(self, deployed):
        """Corruption affects both paths identically (same frozen weights) —
        the equivalence check stays green, as it must: it checks datapath
        consistency, not weight integrity."""
        engine, ids, mask = deployed
        original = engine.layers[0].ffn1.weight_codes[1, 1]
        engine.layers[0].ffn1.weight_codes[1, 1] = 7
        try:
            simulator = AcceleratorSimulator(
                AcceleratorConfig(num_pus=2, num_pes=4, num_multipliers=8), ZCU102
            )
            hw = simulator.run_functional(engine, ids[:1], mask[:1])
            sw = engine.forward(ids[:1], mask[:1])
            np.testing.assert_array_equal(hw, sw)
        finally:
            engine.layers[0].ffn1.weight_codes[1, 1] = original


class TestRequantCorruption:
    def test_wrong_requant_breaks_qat_agreement(self, trained_quant_model, tiny_task):
        """A mis-frozen requant multiplier must surface in the QAT-vs-integer
        logit check (the boundary that owns scale correctness)."""
        from repro.quant.fixedpoint import FixedPointMultiplier

        _, _, dev, _ = tiny_task
        batch = dev.full_batch()
        ids, mask = batch.input_ids[:8], batch.attention_mask[:8]

        engine = convert_to_integer(trained_quant_model)
        with_good = engine.forward(ids, mask)
        bad = FixedPointMultiplier.from_float(
            engine.layers[0].ffn1.requant.to_float() * 2.0  # 2x wrong scale
        )
        engine.layers[0].ffn1.requant = bad
        with_bad = engine.forward(ids, mask)
        drift_good = np.abs(with_good - trained_quant_model(ids, mask).data).max()
        drift_bad = np.abs(with_bad - trained_quant_model(ids, mask).data).max()
        assert drift_bad > drift_good * 2


class TestLutCorruption:
    def test_non_monotone_exp_lut_detected(self, deployed):
        """A corrupted softmax LUT violates its monotonicity invariant."""
        engine, _, _ = deployed
        lut = engine.layers[0].attention.exp_lut.copy()
        lut[10] = lut[5] + 50  # break monotone decrease
        assert not np.all(np.diff(lut) <= 0)

    def test_corrupted_lut_changes_attention(self, deployed):
        """A table without exp(0) would divide 0/0 in every softmax row:
        it is rejected, naming the table, rather than turned into codes."""
        engine, ids, mask = deployed
        lut = engine.layers[0].attention.exp_lut
        original = lut.copy()
        lut[:32] = 0  # kill near-max entries, exp(0) included
        try:
            with pytest.raises(ValueError, match="exp LUT"):
                engine.forward(ids, mask)
        finally:
            lut[:] = original

    def test_corrupted_lut_tail_changes_attention(self, deployed):
        engine, ids, mask = deployed
        baseline = engine.forward(ids, mask)
        lut = engine.layers[0].attention.exp_lut
        original = lut.copy()
        lut[1:32] = 0  # kill near-max entries, exp(0) intact
        try:
            corrupted = engine.forward(ids, mask)
        finally:
            lut[:] = original
        assert not np.array_equal(baseline, corrupted)


class TestGeluLutCorruption:
    def test_identity_table_detected_by_output_change(self, deployed):
        engine, ids, mask = deployed
        baseline = engine.forward(ids, mask)
        gelu = engine.layers[0].gelu
        original = gelu.table.copy()
        gelu.table[:] = np.arange(-128, 128)  # identity instead of GELU
        corrupted = engine.forward(ids, mask)
        gelu.table[:] = original
        assert not np.array_equal(baseline, corrupted)


class TestNarrowDatapathTracksCorruption:
    """Each corruption still changes the encoder's codes under the float32
    GEMM / float64 requant datapath, and the engine still agrees code for
    code with the seed int64 kernels and the accelerator model on the
    corrupted model — so every check that caught it before still does."""

    @staticmethod
    def _check(engine, ids, mask, baseline, hardware_agrees=True):
        from repro.perf import reference_encode

        corrupted = engine.encode(ids, mask)
        assert corrupted.dtype == np.int64
        assert not np.array_equal(baseline, corrupted)
        np.testing.assert_array_equal(corrupted, reference_encode(engine, ids, mask))
        simulator = AcceleratorSimulator(
            AcceleratorConfig(num_pus=2, num_pes=4, num_multipliers=8), ZCU102
        )
        hw = simulator.run_functional(engine, ids[:1], mask[:1])
        assert np.array_equal(hw, engine.forward(ids[:1], mask[:1])) == hardware_agrees

    def test_reassigned_requant(self, deployed):
        from repro.quant.fixedpoint import FixedPointMultiplier

        engine, ids, mask = deployed
        baseline = engine.encode(ids, mask)
        ffn1 = engine.layers[0].ffn1
        ffn1.requant = FixedPointMultiplier.from_float(ffn1.requant.to_float() * 2.0)
        self._check(engine, ids, mask, baseline)

    def test_edited_weights_after_invalidate(self, deployed):
        engine, ids, mask = deployed
        baseline = engine.encode(ids, mask)
        ffn1 = engine.layers[0].ffn1
        ffn1.weight_codes[:, :4] = -ffn1.weight_codes[:, :4]
        ffn1.invalidate_cache()
        self._check(engine, ids, mask, baseline)

    def test_edited_gamma(self, deployed):
        engine, ids, mask = deployed
        baseline = engine.encode(ids, mask)
        ln = engine.layers[0].attention_layernorm
        ln.gamma_codes[:] = -ln.gamma_codes  # int64 codes: seen without invalidation
        self._check(engine, ids, mask, baseline)

    def test_replaced_exp_lut(self, deployed):
        from repro.quant.softmax_lut import build_exp_lut

        engine, ids, mask = deployed
        baseline = engine.encode(ids, mask)
        attention = engine.layers[0].attention
        attention.exp_lut = build_exp_lut(attention.score_scale * 2.0)  # mis-scaled table
        # The softmax core loads its table from the score scale, so the
        # hardware/software comparison flags the replaced table.
        self._check(engine, ids, mask, baseline, hardware_agrees=False)
