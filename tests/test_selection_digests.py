"""Golden sha256 digests of the algorithm selector's exact outputs.

Pinned bit for bit, so a change to the trees, the forest, the
cross-validation loop or the selector's training path cannot move a
number silently:

* the ``SelectorReport`` (fold accuracies, misprediction MAPE) of
  ``AlgorithmSelector()`` and ``AlgorithmSelector(n_estimators=60)``;
* both forests' ``predict_proba`` bytes on the 448 dataset rows plus a
  seeded set of perturbed rows;
* the ``data`` and table of ``selection``, ``selection-features``,
  ``fig09`` and ``fig10``.

After an intentional change to one of them, regenerate with::

    PYTHONPATH=src python -c "import tests.test_selection_digests as g; g.regenerate()"

and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden" / "selection_digests.json"

#: Selector hyperparameters whose outputs are pinned.
SELECTORS = {"default": {}, "n_estimators_60": {"n_estimators": 60}}
EXPERIMENTS = ("selection", "selection-features", "fig09", "fig10")
N_PERTURBED = 2000


def _sha(*parts: str | bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
        digest.update(b"\0")
    return digest.hexdigest()


def _plain(value):
    """JSON-able form of an experiment's ``data`` (exact float values)."""
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int) or hasattr(value, "__index__"):
        return int(value)
    return float(value)


def _probe_rows(dataset) -> np.ndarray:
    """The dataset rows followed by seeded perturbations of them."""
    rng = np.random.default_rng(20240812)
    picks = dataset.X[rng.integers(0, len(dataset), N_PERTURBED)]
    scale = rng.uniform(0.5, 2.0, size=picks.shape)
    return np.vstack([dataset.X, picks * scale])


def _report_digest(report) -> str:
    return _sha(
        json.dumps([float(a) for a in report.fold_accuracies]),
        repr(float(report.misprediction_mape)),
    )


def _proba_digest(selector, dataset) -> str:
    proba = np.ascontiguousarray(
        selector.model.predict_proba(_probe_rows(dataset)), dtype=np.float64
    )
    return _sha(repr(proba.shape), proba.tobytes())


def _experiment_digest(name: str) -> str:
    from repro.experiments.cli import run_experiment

    result = run_experiment(name)
    data = {
        k: v for k, v in result.data.items() if k not in ("selector", "dataset")
    }
    return _sha(result.table.render(), json.dumps(_plain(data), sort_keys=True))


def _trained(dataset) -> dict:
    from repro.selection import AlgorithmSelector

    out = {}
    for key, kwargs in SELECTORS.items():
        selector = AlgorithmSelector(**kwargs)
        selector.train(dataset)
        out[key] = selector
    return out


def _current() -> dict[str, str]:
    from repro.selection import build_dataset

    dataset = build_dataset()
    digests = {}
    for key, selector in _trained(dataset).items():
        digests[f"report_{key}"] = _report_digest(selector.report)
        digests[f"proba_{key}"] = _proba_digest(selector, dataset)
    for name in EXPERIMENTS:
        digests[f"experiment_{name}"] = _experiment_digest(name)
    return digests


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden file from the current code (see module docstring)."""
    GOLDEN_PATH.write_text(json.dumps(_current(), indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def selectors(selection_dataset) -> dict:
    return _trained(selection_dataset)


@pytest.mark.parametrize("key", list(SELECTORS))
def test_selector_report_digest(golden, selectors, key):
    assert _report_digest(selectors[key].report) == golden[f"report_{key}"]


@pytest.mark.parametrize("key", list(SELECTORS))
def test_predict_proba_digest(golden, selectors, selection_dataset, key):
    digest = _proba_digest(selectors[key], selection_dataset)
    assert digest == golden[f"proba_{key}"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_digest(golden, name):
    assert _experiment_digest(name) == golden[f"experiment_{name}"]
