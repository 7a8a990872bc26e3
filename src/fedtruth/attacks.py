"""Model-poisoning transforms applied to adversarial clients.

These are the update/model-level pieces: boosting, Gaussian noise,
benign/poisoned model blending, and projection onto a ball around the
previous global model. Data-side backdoor construction (triggers, trigger
sharding, edge-case pools) lives in the data module.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class AttackKind(Enum):
    NONE = "none"
    MODEL_BOOST = "model_boost"
    GAUSSIAN_NOISE = "gaussian_noise"
    BACKDOOR = "backdoor"


class AttackStrategy(Enum):
    BASE = "base"
    WITH_BOOSTING = "with_boosting"
    CONSTRAIN_AND_SCALE = "constrain_and_scale"


def boosting_factor(c_total: int, c_adv: int) -> float:
    """Auto boosting factor: selected clients over adversarial clients."""
    if c_adv <= 0:
        raise ValueError("adversary count must be positive")
    if c_adv > c_total:
        raise ValueError("adversary count cannot exceed client count")
    return c_total / c_adv


def boost_update(delta: np.ndarray, factor: float) -> np.ndarray:
    """Scale an update element-wise by the boosting factor."""
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return np.asarray(delta, dtype=np.float64) * factor


def gaussian_noise(model: np.ndarray, sigma: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Normal(0, sigma^2) noise to every model coordinate."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    model = np.asarray(model, dtype=np.float64)
    if sigma == 0.0:
        return model.copy()
    return model + rng.normal(0.0, sigma, size=model.shape)


def constrain_and_scale(benign: np.ndarray, poisoned: np.ndarray,
                        alpha: float, factor: float) -> np.ndarray:
    """Blend a benign and a poisoned model, then scale the result.

    Returns factor * (alpha * benign + (1 - alpha) * poisoned). Applied at
    the model level; the caller converts the result to an update.
    """
    benign = np.asarray(benign, dtype=np.float64)
    poisoned = np.asarray(poisoned, dtype=np.float64)
    if benign.shape != poisoned.shape:
        raise ValueError(
            f"dimension mismatch: {benign.shape} vs {poisoned.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not factor > 0:
        raise ValueError("factor must be > 0")
    return factor * (alpha * benign + (1.0 - alpha) * poisoned)


def pgd_project(local: np.ndarray, global_ref: np.ndarray,
                radius: float) -> np.ndarray:
    """Project a local model onto the L2 ball around the global model."""
    local = np.asarray(local, dtype=np.float64)
    global_ref = np.asarray(global_ref, dtype=np.float64)
    if local.shape != global_ref.shape:
        raise ValueError(
            f"dimension mismatch: {local.shape} vs {global_ref.shape}")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    offset = local - global_ref
    dist = float(np.linalg.norm(offset))
    if dist <= radius:
        return local.copy()
    if dist == 0.0:
        return global_ref.copy()
    return global_ref + offset * (radius / dist)
