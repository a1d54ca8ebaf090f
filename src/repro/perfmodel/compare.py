"""Model-vs-measured comparison.

Closes the loop the paper sketches in Section V: calibrate the simple
hardware model on one run, predict other scales, and quantify the error.
``compare_run`` lines up one measured pipeline run against the model;
``extrapolation_study`` calibrates at one scale and scores predictions
at others — the "predict the performance on current and proposed
systems" workflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.runner import execute_spec
from repro.api.spec import RunSpec
from repro.core.config import KernelName
from repro.core.results import PipelineResult
from repro.perfmodel.calibrate import calibrate_from_run
from repro.perfmodel.hardware import HardwareModel, LAPTOP_CLASS
from repro.perfmodel.kernels import predict_pipeline

_KERNEL_ORDER = [
    KernelName.K0_GENERATE,
    KernelName.K1_SORT,
    KernelName.K2_FILTER,
    KernelName.K3_PAGERANK,
]


@dataclass(frozen=True)
class KernelComparison:
    """Measured vs predicted numbers for one kernel.

    Attributes
    ----------
    kernel:
        Kernel id string.
    measured_eps / predicted_eps:
        Edges per second, measured and modelled.
    error_factor:
        ``max(m, p) / min(m, p)`` — 1.0 is perfect, 2.0 is off by 2x
        either way.
    dominant_term:
        The resource the model says bounds this kernel.
    """

    kernel: str
    measured_eps: float
    predicted_eps: float
    error_factor: float
    dominant_term: str


def compare_run(
    result: PipelineResult, hw: HardwareModel
) -> List[KernelComparison]:
    """Line up one measured run against the model's predictions."""
    predictions = {
        p.kernel: p
        for p in predict_pipeline(
            hw, result.config.num_edges, iterations=result.config.iterations
        )
    }
    comparisons = []
    for kernel_name, prediction_key in zip(
        _KERNEL_ORDER, ("k0", "k1", "k2", "k3")
    ):
        measured = result.kernel(kernel_name).edges_per_second
        prediction = predictions[prediction_key]
        predicted = prediction.edges_per_second
        if measured <= 0 or predicted <= 0:
            factor = float("inf")
        else:
            factor = max(measured, predicted) / min(measured, predicted)
        comparisons.append(
            KernelComparison(
                kernel=kernel_name.value,
                measured_eps=measured,
                predicted_eps=predicted,
                error_factor=factor,
                dominant_term=max(prediction.terms, key=prediction.terms.get),
            )
        )
    return comparisons


@dataclass
class ExtrapolationStudy:
    """Calibrate at one scale, predict others.

    Attributes
    ----------
    calibration_scale:
        The scale whose run fitted the model.
    hardware:
        The calibrated model.
    comparisons:
        Mapping of scale -> per-kernel comparisons at that scale.
    """

    calibration_scale: int
    hardware: HardwareModel
    comparisons: Dict[int, List[KernelComparison]]

    def worst_error(self) -> float:
        """Largest error factor across all predicted scales/kernels."""
        factors = [
            c.error_factor
            for comps in self.comparisons.values()
            for c in comps
        ]
        return max(factors) if factors else float("inf")


def extrapolation_study(
    *,
    calibration_scale: int = 10,
    predicted_scales: Optional[List[int]] = None,
    backend: str = "scipy",
    seed: int = 1,
    base: HardwareModel = LAPTOP_CLASS,
) -> ExtrapolationStudy:
    """Calibrate on one scale and score predictions at other scales.

    Runs the benchmark (:func:`repro.api.execute_spec`) once at
    ``calibration_scale`` to fit the model, then once per entry of
    ``predicted_scales`` to measure the model's extrapolation error.

    Examples
    --------
    >>> study = extrapolation_study(calibration_scale=8,
    ...                             predicted_scales=[9], seed=3)
    >>> study.worst_error() < 50   # loose bound; models are simple
    True
    """
    predicted_scales = predicted_scales or [calibration_scale + 2]

    def measure(scale: int) -> PipelineResult:
        spec = RunSpec(scale=scale, seed=seed, backend=backend,
                       validation="off")
        return execute_spec(spec).result

    hw = calibrate_from_run(measure(calibration_scale), base)
    comparisons = {
        scale: compare_run(measure(scale), hw) for scale in predicted_scales
    }
    return ExtrapolationStudy(
        calibration_scale=calibration_scale,
        hardware=hw,
        comparisons=comparisons,
    )


def render_comparison(comparisons: List[KernelComparison]) -> str:
    """Monospace table of one scale's model-vs-measured numbers."""
    from repro.harness.tables import render_table

    rows = [
        [
            c.kernel,
            f"{c.measured_eps:,.0f}",
            f"{c.predicted_eps:,.0f}",
            f"{c.error_factor:.2f}x",
            c.dominant_term,
        ]
        for c in comparisons
    ]
    return render_table(
        ["kernel", "measured e/s", "model e/s", "error", "model bottleneck"],
        rows,
    )
