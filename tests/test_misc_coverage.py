"""Coverage of small public surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate
from repro.bert import BertConfig
from repro.bert.tokenizer import Vocabulary, WordPieceTokenizer


class TestTensorMisc:
    def test_item(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_repr(self):
        assert "requires_grad=True" in repr(Tensor(np.ones(2), requires_grad=True))
        assert "shape=(2,)" in repr(Tensor(np.ones(2)))

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))

    def test_concatenate_default_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 3), dtype=np.float32))
        b = Tensor(rng.standard_normal((2, 2), dtype=np.float32))
        assert concatenate([a, b]).shape == (2, 5)

    def test_rsub_rtruediv(self):
        t = Tensor(np.array([2.0], dtype=np.float32))
        np.testing.assert_allclose((3.0 - t).data, [1.0])
        np.testing.assert_allclose((8.0 / t).data, [4.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestTokenizerEdges:
    def test_empty_text(self):
        tokenizer = WordPieceTokenizer(Vocabulary(["a"]))
        ids, mask, segments = tokenizer.encode("", max_length=4)
        # Just [CLS] [SEP] + padding.
        assert mask.sum() == 2

    def test_tokenize_empty_string(self):
        tokenizer = WordPieceTokenizer(Vocabulary(["a"]))
        assert tokenizer.tokenize("") == []

    def test_pair_with_empty_hypothesis(self):
        tokenizer = WordPieceTokenizer(Vocabulary(["a", "b"]))
        ids, mask, segments = tokenizer.encode("a", "", max_length=8)
        assert mask.sum() == 4  # CLS a SEP SEP
        assert segments[3] == 1


class TestEnergyMisc:
    def test_dominant_component(self):
        from repro.accel import AcceleratorConfig, build_encoder_workload, estimate_energy

        workload = build_encoder_workload(BertConfig.base(), seq_len=128)
        breakdown = estimate_energy(workload, AcceleratorConfig(), weight_bits=32)
        assert breakdown.dominant_component() == "dram_weights"


class TestExperimentsMainModule:
    def test_only_table3_runs(self, capsys):
        from repro.experiments.__main__ import main
        import sys

        argv = sys.argv
        sys.argv = ["experiments", "--only", "table3"]
        try:
            main()
        finally:
            sys.argv = argv
        out = capsys.readouterr().out
        assert "Table III" in out


class TestReportGenerator:
    def test_smoke_report(self):
        from repro.experiments import ExperimentScale, clear_cache, generate_report

        clear_cache()
        text = generate_report(ExperimentScale.smoke())
        assert "# FQ-BERT reproduction report" in text
        assert "Table III" in text and "Table IV" in text
        assert "Figure 3" in text
        assert "compression" in text
