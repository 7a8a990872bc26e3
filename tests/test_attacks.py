import numpy as np
import pytest

from fedtruth.attacks import (AttackKind, AttackStrategy, boost_update,
                              boosting_factor, constrain_and_scale,
                              gaussian_noise, pgd_project)
from fedtruth.config import AttackConfig, config_from_dict
from fedtruth.rng import stream


def test_boosting_factor_values():
    assert boosting_factor(10, 3) == pytest.approx(10 / 3)
    assert boosting_factor(10, 10) == 1.0
    assert boosting_factor(10, 1) == 10.0
    with pytest.raises(ValueError):
        boosting_factor(10, 0)
    with pytest.raises(ValueError):
        boosting_factor(3, 4)


def test_boost_update():
    assert boost_update(np.array([1.0, -2.0]), 10.0) == \
        pytest.approx([10.0, -20.0])
    v = np.array([3.0, 4.0])
    assert boost_update(v, 1.0) == pytest.approx(v)
    assert boost_update(np.zeros(3), 5.0) == pytest.approx(np.zeros(3))
    with pytest.raises(ValueError):
        boost_update(v, 0.0)


def test_boost_scales_norm_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.normal(size=10)
        x = float(rng.uniform(0.1, 20.0))
        assert np.linalg.norm(boost_update(d, x)) == pytest.approx(
            x * np.linalg.norm(d), rel=1e-12)


def test_gaussian_noise_zero_sigma_identity():
    model = np.array([1.0, 2.0, 3.0])
    out = gaussian_noise(model, 0.0, stream(0, "noise"))
    assert np.array_equal(out, model)


def test_gaussian_noise_seed_reproducible():
    model = np.zeros(100)
    a = gaussian_noise(model, 1.0, stream(3, "noise", 1))
    b = gaussian_noise(model, 1.0, stream(3, "noise", 1))
    c = gaussian_noise(model, 1.0, stream(3, "noise", 2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_noise_sample_variance():
    # chi-square bound: sd of the sample variance at dim 1e4 is ~0.014,
    # so [0.9, 1.1] leaves 7 sigma of slack
    model = np.zeros(10_000)
    noised = gaussian_noise(model, 1.0, stream(7, "noise"))
    assert 0.9 <= np.var(noised) <= 1.1
    assert abs(np.mean(noised)) < 0.05


def test_constrain_and_scale_identities():
    benign = np.array([1.0, 2.0])
    poisoned = np.array([-3.0, 5.0])
    assert constrain_and_scale(benign, poisoned, 1.0, 1.0) == \
        pytest.approx(benign)
    assert constrain_and_scale(benign, poisoned, 0.0, 1.0) == \
        pytest.approx(poisoned)
    assert constrain_and_scale(np.array([0.0]), np.array([4.0]), 0.5, 2.0) \
        == pytest.approx([4.0])


def test_constrain_and_scale_errors():
    with pytest.raises(ValueError):
        constrain_and_scale(np.zeros(2), np.zeros(3), 0.5, 1.0)
    with pytest.raises(ValueError):
        constrain_and_scale(np.zeros(2), np.zeros(2), 1.5, 1.0)
    with pytest.raises(ValueError):
        constrain_and_scale(np.zeros(2), np.zeros(2), 0.5, 0.0)


def test_pgd_project_examples():
    inside = np.array([1.0, 1.0])
    assert np.array_equal(pgd_project(inside, np.zeros(2), 5.0), inside)
    out = pgd_project(np.array([6.0, 8.0]), np.zeros(2), 5.0)
    assert out == pytest.approx([3.0, 4.0])
    ref = np.array([2.0, -1.0])
    assert pgd_project(np.array([9.0, 9.0]), ref, 0.0) == pytest.approx(ref)


def test_pgd_projection_stays_in_ball():
    rng = np.random.default_rng(4)
    for _ in range(100):
        local = rng.normal(size=6) * 10
        ref = rng.normal(size=6)
        radius = float(rng.uniform(0.0, 5.0))
        out = pgd_project(local, ref, radius)
        assert np.linalg.norm(out - ref) <= radius + 1e-12


def test_attack_spec_validation():
    spec = AttackConfig(kind=AttackKind.MODEL_BOOST,
                        strategy=AttackStrategy.WITH_BOOSTING)
    assert spec.resolve_factor(10, 3) == pytest.approx(10 / 3)
    assert AttackConfig(boosting_factor=10.0).resolve_factor(10, 3) == 10.0
    for key, bad in [("sigma", -1.0), ("alpha", 1.5),
                     ("boosting_factor", 0.0), ("pgd_radius", -0.1)]:
        with pytest.raises(ValueError, match=f"attack.{key}"):
            config_from_dict({"attack": {key: bad}})
