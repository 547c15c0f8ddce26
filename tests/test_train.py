import dataclasses

import numpy as np
import pytest

from craft.adapter import Adapter, encode, param_count, read_checkpoint, write_checkpoint
from craft.core import (ConfigError, FormatError, NormalizationError,
                        NumericError, ScheduleError, ShapeError, l2_normalize)
from craft.dataio import SyntheticConfig, generate_synthetic
from craft.experiments import build_training_anchors, reference_config, run_experiment
from craft.losses import Mode
from craft.train import TrainConfig, TrainHistory, cosine_lr, sgd_step, train

from conftest import unit_rows


# ---------------------------------------------------------------------------
# adapter / encode


def test_zero_adapter_is_identity(rng):
    adapter = Adapter.zeros(5)
    base = unit_rows(rng, 4, 5)
    np.testing.assert_allclose(adapter.encode_image(base), base, atol=1e-12)
    np.testing.assert_allclose(adapter.encode_text(base), base, atol=1e-12)


def test_encode_zero_vector_rejected():
    base = l2_normalize(np.array([1.0, 1.0]))
    with pytest.raises(NormalizationError):
        encode(np.zeros((2, 2)), -base, base)


def test_encode_identity_weight_scale_invariant(rng):
    base = unit_rows(rng, 3, 4)
    # W = I makes z = 2 * base
    np.testing.assert_allclose(encode(np.eye(4), np.zeros(4), base), base, atol=1e-12)


def test_encode_nonfinite_params_rejected():
    with pytest.raises(NumericError):
        encode(np.full((2, 2), np.nan), np.zeros(2), np.array([1.0, 0.0]))


def test_flat_roundtrip(rng):
    # the blocks are views into the flat vector, in CADP order
    flat = rng.standard_normal(param_count(3))
    adapter = Adapter(flat.copy())
    assert adapter.dim == 3
    np.testing.assert_array_equal(adapter.params, flat)
    np.testing.assert_array_equal(adapter.w_img, flat[:9].reshape(3, 3))
    np.testing.assert_array_equal(adapter.b_img, flat[9:12])
    np.testing.assert_array_equal(adapter.w_txt, flat[12:21].reshape(3, 3))
    np.testing.assert_array_equal(adapter.b_txt, flat[21:])
    adapter.params[12] = 5.0
    assert adapter.w_txt[0, 0] == 5.0
    with pytest.raises(ShapeError):
        Adapter(np.zeros(param_count(3) + 1))


def test_checkpoint_roundtrip(tmp_path, rng):
    adapter = Adapter(rng.standard_normal(param_count(6)))
    path = tmp_path / "adapter.cadp"
    write_checkpoint(adapter, path)
    back = read_checkpoint(path)
    np.testing.assert_array_equal(back.params, adapter.params)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.cadp"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(FormatError, match="magic"):
        read_checkpoint(path)


def test_checkpoint_truncated(tmp_path, rng):
    adapter = Adapter(rng.standard_normal(param_count(4)))
    path = tmp_path / "trunc.cadp"
    write_checkpoint(adapter, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="length"):
        read_checkpoint(path)


# ---------------------------------------------------------------------------
# schedule and steps


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 10, 0.5) == 0.5
    assert cosine_lr(10, 10, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert cosine_lr(5, 10, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_cosine_lr_out_of_range():
    with pytest.raises(ScheduleError):
        cosine_lr(11, 10, 0.5)
    with pytest.raises(ScheduleError):
        cosine_lr(-1, 10, 0.5)
    with pytest.raises(ScheduleError):
        cosine_lr(0, 0, 0.5)


def test_sgd_step_examples(rng):
    size = param_count(2)
    adapter = Adapter(np.ones(size))
    np.testing.assert_array_equal(sgd_step(adapter, np.zeros(size), 0.3).params, adapter.params)
    some_grad = np.full(size, 0.5)
    np.testing.assert_array_equal(sgd_step(adapter, some_grad, 0.0).params, adapter.params)
    stepped = sgd_step(adapter, some_grad, 0.1)
    np.testing.assert_allclose(stepped.params, np.full(size, 0.95), atol=1e-15)
    np.testing.assert_array_equal(adapter.params, np.ones(size))  # the input is left as it was


def test_sgd_step_layout_mismatch(rng):
    adapter = Adapter.zeros(3)
    wrong = np.zeros(param_count(4))
    with pytest.raises(ShapeError):
        sgd_step(adapter, wrong, 0.1)


def test_default_learning_rates():
    assert TrainConfig(batch_size=4).resolved_learning_rate() == 0.0025
    assert TrainConfig(batch_size=128).resolved_learning_rate() == 0.01
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=7).resolved_learning_rate()
    assert TrainConfig(batch_size=7, learning_rate=0.05).resolved_learning_rate() == 0.05


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(temperature=0.0).validate()


# ---------------------------------------------------------------------------
# training loop


def small_data(seed=13, **overrides):
    base = dict(num_classes=4, dim=8, samples_per_class_per_modality=8,
                cluster_spread=0.2, cross_modal_noise=0.3, seed=seed)
    base.update(overrides)
    source, target = generate_synthetic(SyntheticConfig(**base))
    text_anchors, image_anchors = build_training_anchors(source, seed)
    return source, target, text_anchors, image_anchors


def test_zero_lr_keeps_initialization():
    source, target, ta, ia = small_data()
    cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-300, temperature=5.0, seed=1)
    adapter, history = train(source, None, ta, ia, cfg)
    np.testing.assert_allclose(adapter.params, 0.0, atol=1e-290)
    assert len(history) == 1


def test_train_deterministic():
    source, target, ta, ia = small_data()
    cfg = TrainConfig(epochs=3, batch_size=4, temperature=5.0, seed=9)
    a1, h1 = train(source, None, ta, ia, cfg)
    a2, h2 = train(source, None, ta, ia, cfg)
    np.testing.assert_array_equal(a1.params, a2.params)
    assert [r.to_dict() for r in h1.records] == [r.to_dict() for r in h2.records]


def test_train_history_length_and_lr():
    source, _, ta, ia = small_data()
    cfg = TrainConfig(epochs=5, batch_size=4, temperature=5.0, seed=2)
    _, history = train(source, None, ta, ia, cfg)
    assert len(history) == 5
    assert history.records[0].learning_rate == 0.0025
    lrs = [r.learning_rate for r in history.records]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_train_mode_requires_target():
    source, _, ta, ia = small_data()
    for mode in (Mode.ALIGNED_MMD, Mode.ORACLE):
        with pytest.raises(ConfigError, match="target"):
            train(source, None, ta, ia, TrainConfig(mode=mode, temperature=5.0))


def test_train_all_modes_run():
    source, target, ta, ia = small_data()
    for mode in Mode:
        cfg = TrainConfig(epochs=2, batch_size=4, temperature=5.0, seed=3, mode=mode)
        adapter, history = train(source, target, ta, ia, cfg)
        assert np.all(np.isfinite(adapter.params))
        if mode is Mode.ALIGNED_MMD:
            assert history.records[0].mmd_term > 0.0
        else:
            assert history.records[0].mmd_term == 0.0


def test_baseline_updates_equal_static_image_updates():
    # gradient-level subsumption carried through whole training trajectories
    source, _, ta, ia = small_data()
    base_cfg = TrainConfig(epochs=3, batch_size=4, temperature=5.0, seed=4,
                           mode=Mode.BASELINE_CE)
    static_cfg = dataclasses.replace(base_cfg, mode=Mode.ALIGNED, w_stochastic=0.0)
    a_base, _ = train(source, None, ta, ia, base_cfg)
    a_static, _ = train(source, None, ta, ia, static_cfg)
    np.testing.assert_array_equal(a_base.w_img, a_static.w_img)
    np.testing.assert_array_equal(a_base.b_img, a_static.b_img)
    np.testing.assert_array_equal(a_base.w_txt, np.zeros((source.dim, source.dim)))


def test_frozen_bandwidth_option_runs():
    source, target, ta, ia = small_data()
    cfg = TrainConfig(epochs=2, batch_size=4, temperature=5.0, seed=5,
                      mode=Mode.ALIGNED_MMD, freeze_bandwidth=True)
    adapter, history = train(source, target, ta, ia, cfg)
    assert np.all(np.isfinite(adapter.params))
    cfg_fixed = dataclasses.replace(cfg, bandwidth=2.0, freeze_bandwidth=False)
    adapter2, _ = train(source, target, ta, ia, cfg_fixed)
    assert np.all(np.isfinite(adapter2.params))


def test_history_jsonl_roundtrip(tmp_path):
    source, _, ta, ia = small_data()
    cfg = TrainConfig(epochs=2, batch_size=4, temperature=5.0, seed=6)
    _, history = train(source, None, ta, ia, cfg)
    path = tmp_path / "history.jsonl"
    history.to_jsonl(path)
    back = TrainHistory.from_jsonl(path)
    assert [r.to_dict() for r in back.records] == [r.to_dict() for r in history.records]


def test_reference_loss_ema_smoke():
    # 5-epoch-span EMA of the total loss must not rise more than 5% per epoch
    out = run_experiment(reference_config())
    totals = [r.total for r in out["history"].records]
    alpha = 2.0 / 6.0
    ema = [totals[0]]
    for value in totals[1:]:
        ema.append(alpha * value + (1 - alpha) * ema[-1])
    for i in range(5, len(ema)):
        assert ema[i] <= ema[i - 1] * 1.05
