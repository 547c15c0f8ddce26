import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import craft.losses as losses_mod
import craft.train as train_mod
from craft.adapter import Adapter, encode, param_count, read_checkpoint, write_checkpoint
from craft.anchors import AnchorSet
from craft.core import (AnchorError, ConfigError, FormatError, LabelError, NormalizationError,
                        NumericError, ShapeError, l2_normalize, make_rng)
from craft.dataio import Modality, SyntheticConfig, generate_synthetic
from craft.evaluation import accuracy, score
from craft.experiments import build_training_anchors, reference_config, run_experiment
from craft.losses import LossBatch, Mode, loss_and_gradient
from craft.train import (EpochRecord, TrainConfig, TrainHistory, cosine_lr, sgd_step,
                         train)

from conftest import apply_edits, byte_edits, unit_rows


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


def test_encode_overflowing_norm_rejected():
    # |z| = 1.4e200 squares past the float64 range: no unit vector comes out
    with np.errstate(over="ignore"), pytest.raises(NormalizationError):
        encode(np.full((2, 2), 1e200), np.zeros(2), np.array([1.0, 0.0]))


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


@pytest.fixture(scope="module")
def cadp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cadp")


_CADP = (struct.pack("<4sII", b"CADP", 1, 2)
         + np.linspace(-1.0, 1.0, param_count(2)).astype("<f8").tobytes())


@given(byte_edits(len(_CADP)))
@example([("overwrite", 12 + 8 * 3, struct.pack("<d", math.inf))])
@example([("overwrite", 12 + 8 * 11, struct.pack("<d", math.nan))])
@example([("overwrite", 8, struct.pack("<I", 0)), ("truncate", 12)])  # dim 0, no parameters
@example([("overwrite", 8, struct.pack("<I", 2**32 - 1))])
@settings(max_examples=200, deadline=None)
def test_fuzzed_cadp_is_read_or_refused(cadp_dir, edits):
    path = cadp_dir / "fuzzed.cadp"
    path.write_bytes(apply_edits(_CADP, edits))
    try:
        adapter = read_checkpoint(path)
    except FormatError:
        return
    assert adapter.params.shape == (param_count(adapter.dim),)
    assert np.all(np.isfinite(adapter.params))


# ---------------------------------------------------------------------------
# schedule and steps


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 10, 0.5) == 0.5
    assert cosine_lr(10, 10, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert cosine_lr(5, 10, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_sgd_step_examples(rng):
    size = param_count(2)
    adapter = Adapter(np.ones(size))
    params = adapter.params
    assert sgd_step(adapter, np.zeros(size), 0.3) is adapter
    np.testing.assert_array_equal(adapter.params, np.ones(size))
    sgd_step(adapter, np.full(size, 0.5), 0.0)
    np.testing.assert_array_equal(adapter.params, np.ones(size))
    some_grad = np.full(size, 0.5)
    sgd_step(adapter, some_grad, 0.1)
    np.testing.assert_allclose(adapter.params, np.full(size, 0.95), atol=1e-15)
    # in place: the same vector, so the block views see the step too
    assert adapter.params is params
    np.testing.assert_allclose(adapter.w_img, np.full((2, 2), 0.95), atol=1e-15)
    np.testing.assert_allclose(some_grad, np.full(size, 0.05), atol=1e-15)  # consumed


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       lr=st.floats(1e-6, 10.0), scale=st.floats(1e-3, 1e3))
def test_sgd_step_in_place_is_bitwise(seed, dim, lr, scale):
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(param_count(dim))
    gradient = scale * rng.standard_normal(param_count(dim))
    expected = params - lr * gradient
    adapter = Adapter(params.copy())
    sgd_step(adapter, gradient.copy(), lr)
    assert adapter.params.tobytes() == expected.tobytes()


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
    # the bound keeps anchor-aligned distances finite at any class count
    TrainConfig(temperature=1e100).validate()
    for temperature in (math.nextafter(1e100, math.inf), 1e200, math.inf, math.nan):
        with pytest.raises(ConfigError, match=r"^train\.temperature must be in \(0, 1e\+100\]"):
            TrainConfig(temperature=temperature).validate()
    # and sigma^2, which the kernel divides by, stays a finite positive normal
    for bandwidth in (1e-100, 1e100):
        TrainConfig(bandwidth=bandwidth).validate()
    for bandwidth in (0.0, -1.0, math.nextafter(1e-100, 0.0), 1e-200,
                      math.nextafter(1e100, math.inf), 1e200, math.inf, math.nan):
        with pytest.raises(ConfigError,
                           match=r"^train\.bandwidth must be null or in \[1e-100, 1e\+100\]"):
            TrainConfig(bandwidth=bandwidth).validate()


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
    with pytest.raises(ConfigError, match="target"):
        train(source, None, ta, ia, TrainConfig(mode=Mode.ALIGNED_MMD, temperature=5.0))


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


def test_history_jsonl_roundtrip(tmp_path):
    source, _, ta, ia = small_data()
    cfg = TrainConfig(epochs=2, batch_size=4, temperature=5.0, seed=6)
    _, history = train(source, None, ta, ia, cfg)
    path = tmp_path / "history.jsonl"
    history.to_jsonl(path)
    back = [json.loads(line) for line in path.read_text().splitlines()]
    assert back == [r.to_dict() for r in history.records]


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


# ---------------------------------------------------------------------------
# train against its contract, built from public pieces only


def contract_train(source, target, ta, ia, cfg):
    """What ``train`` promises, step by step: the source's labeled records,
    the seeded shuffle, one ``rng.integers`` per image for its same-class
    text record, ``loss_and_gradient`` and ``sgd_step``."""
    img = source.modality_mask(Modality.IMAGE)
    txt = source.modality_mask(Modality.TEXT)
    img_vecs, img_labels = source.vectors[img], source.class_ids[img]
    txt_vecs, txt_labels = source.vectors[txt], source.class_ids[txt]
    pools = {c: np.where(txt_labels == c)[0] for c in np.unique(img_labels)}
    target_imgs = target.image_vectors() if cfg.mode is Mode.ALIGNED_MMD else None
    rng, rng_target = make_rng(cfg.seed, 0), make_rng(cfg.seed, 1)
    adapter = Adapter.zeros(source.dim)
    history = TrainHistory()
    n, size = len(img_labels), cfg.batch_size
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.resolved_learning_rate())
        perm = rng.permutation(n)
        paired = np.array([pools[c][rng.integers(pools[c].size)] for c in img_labels[perm]])
        sums, steps = np.zeros(4), 0
        for start in range(0, n, size):
            sel = perm[start:start + size]
            batch = LossBatch(image=img_vecs[sel], text=txt_vecs[paired[start:start + size]],
                              labels=img_labels[sel])
            if target_imgs is not None:  # the target rows, stacked under the source rows
                batch.image = np.concatenate([batch.image, target_imgs[rng_target.choice(
                    len(target_imgs), size=min(len(sel), len(target_imgs)), replace=False)]])
            report, grad = loss_and_gradient(adapter, batch, ta, ia, cfg,
                                             Adapter.zeros(source.dim))
            adapter = sgd_step(adapter, grad, lr)
            sums += (report.total, report.static_term, report.stochastic_term, report.mmd_term)
            steps += 1
        scored = score(adapter, source, ta)
        history.records.append(EpochRecord(
            epoch, lr, sums[0] / steps, sums[1] / steps, sums[2] / steps, sums[3] / steps,
            accuracy(scored.labels, scored.preds)))
    return adapter, history


@pytest.mark.parametrize("mode, fixed", [(Mode.BASELINE_CE, False), (Mode.ALIGNED, False),
                                         (Mode.ALIGNED_MMD, False), (Mode.ALIGNED_MMD, True)])
def test_train_equals_its_contract_bitwise(mode, fixed):
    # batch 3 leaves a short last batch; uneven text pools make the draws differ per class;
    # with ``fixed`` the MMD term has one bandwidth for the run
    source, target, ta, ia = small_data(seed=21)
    keep = np.ones(len(source), dtype=bool)
    keep[np.flatnonzero(source.modality_mask(Modality.TEXT))[::3]] = False
    source = source.subset(keep)
    cfg = TrainConfig(epochs=3, batch_size=3, learning_rate=0.05, temperature=5.0, seed=8,
                      mode=mode, w_mmd=4.0, bandwidth=2.0 if fixed else None)
    adapter, history = train(source, target, ta, ia, cfg)
    expected, expected_history = contract_train(source, target, ta, ia, cfg)
    np.testing.assert_array_equal(adapter.params, expected.params)
    assert [r.to_dict() for r in history.records] == \
        [r.to_dict() for r in expected_history.records]
    assert np.any(adapter.params != 0.0)


def test_train_steps_through_loss_and_gradient(monkeypatch):
    # one call of the public engine per step, with the run's config fifth,
    # and one sgd_step per step on the one adapter that train returns
    source, target, ta, ia = small_data()
    cfg = TrainConfig(epochs=3, batch_size=3, learning_rate=0.05, temperature=5.0,
                      mode=Mode.ALIGNED_MMD)
    calls, stepped = [], []

    def counting(*args, **kwargs):
        calls.append(args[4])
        return loss_and_gradient(*args, **kwargs)

    def counting_step(adapter, gradient, lr):
        stepped.append(adapter)
        return sgd_step(adapter, gradient, lr)

    monkeypatch.setattr(train_mod, "loss_and_gradient", counting)
    monkeypatch.setattr(train_mod, "sgd_step", counting_step)
    adapter, _ = train(source, target, ta, ia, cfg)
    n = int(np.count_nonzero(source.modality_mask(Modality.IMAGE)))
    assert len(calls) == len(stepped) == cfg.epochs * math.ceil(n / cfg.batch_size)
    assert all(c is cfg for c in calls)
    assert all(a is adapter for a in stepped)


# ---------------------------------------------------------------------------
# train checks its arguments before the first step


@pytest.fixture
def no_steps(monkeypatch):
    def step(*args, **kwargs):
        raise AssertionError("a training step ran before the arguments were checked")
    monkeypatch.setattr(train_mod, "loss_and_gradient", step)


def test_train_rejects_label_outside_an_anchor_set(no_steps):
    source, _, ta, ia = small_data()  # 4 classes
    fewer_text = AnchorSet(ta.vectors[:3], Modality.TEXT, class_names=ta.class_names[:3])
    fewer_image = AnchorSet(ia.vectors[:3], Modality.IMAGE, class_names=ia.class_names[:3])
    for text_anchors, image_anchors, mode in ((fewer_text, ia, Mode.BASELINE_CE),
                                              (ta, fewer_image, Mode.ALIGNED)):
        cfg = TrainConfig(epochs=1, batch_size=4, temperature=5.0, mode=mode)
        with pytest.raises(LabelError):
            train(source, None, text_anchors, image_anchors, cfg)


def test_train_rejects_source_without_images(no_steps):
    source, target, ta, ia = small_data()
    text_only = source.subset(source.modality_mask(Modality.TEXT))
    cfg = TrainConfig(epochs=1, batch_size=4, temperature=5.0, mode=Mode.ALIGNED)
    with pytest.raises(ConfigError, match="source set has no image records"):
        train(text_only, target, ta, ia, cfg)


def test_train_rejects_anchor_or_target_dimension_mismatch(no_steps, rng):
    source, target, ta, ia = small_data()  # dim 8
    wide = AnchorSet(unit_rows(rng, 4, 9), Modality.IMAGE, class_names=ia.class_names)
    with pytest.raises(ShapeError):
        train(source, None, ta, wide, TrainConfig(epochs=1, temperature=5.0))
    _, narrow_target, _, _ = small_data(dim=6)
    with pytest.raises(ShapeError, match="target dim"):
        train(source, narrow_target, ta, ia,
              TrainConfig(epochs=1, temperature=5.0, mode=Mode.ALIGNED_MMD))


def test_train_rejects_empty_anchor_set(no_steps):
    source, _, ta, ia = small_data()
    empty = AnchorSet(np.zeros((0, source.dim)), Modality.TEXT, class_names=[])
    with pytest.raises(AnchorError):
        train(source, None, empty, ia, TrainConfig(epochs=1, temperature=5.0))


def test_numeric_error_names_epoch_and_step(monkeypatch):
    # a step of 1e308 times the gradient overflows the parameters, so the
    # second step's features cannot be normalized
    source, target, ta, ia = small_data()
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e308, temperature=5.0, seed=1)
    with pytest.raises(NormalizationError, match=r"norm \(epoch 0, step 1\)$"):
        train(source, None, ta, ia, cfg)
    # the temperature and bandwidth bounds keep the MMD term finite for
    # every valid config, so a NaN value stands in for a fault in it
    monkeypatch.setattr(losses_mod, "mmd2_biased_grad",
                        lambda z, m, bandwidth: (math.nan, np.zeros(z.shape)))
    cfg = dataclasses.replace(cfg, learning_rate=0.01, mode=Mode.ALIGNED_MMD)
    with pytest.raises(NumericError, match=r"^domain MMD term is non-finite \(epoch 0, step 0\)$"):
        train(source, target, ta, ia, cfg)
