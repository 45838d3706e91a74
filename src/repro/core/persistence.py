"""Model persistence: save fitted Equation 1 models for deployment.

A power model is useful precisely when it outlives the calibration
campaign: it gets fitted once against reference instrumentation and
then deployed on machines that have none.  This module serializes a
:class:`~repro.core.model.FittedPowerModel` to a self-describing JSON
document (coefficients, counter set, fit provenance) and restores it to
a fully functional model — prediction, attribution and online
estimation all work on the restored object.
"""

from __future__ import annotations

import json
import warnings as _warnings
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.model import FittedPowerModel
from repro.core.features import feature_names
from repro.io.atomic import atomic_write_text
from repro.stats.ols import _HC_KINDS, OLSResult

__all__ = ["model_to_dict", "model_from_dict", "save_model", "load_model"]

#: Format tag so future revisions can migrate old files.
FORMAT = "repro-power-model/1"

#: Largest standard error whose square (the restored variance) is finite.
_MAX_BSE = float(np.sqrt(np.finfo(np.float64).max))


def model_to_dict(model: FittedPowerModel) -> Dict:
    """Serializable representation of a fitted model."""
    return {
        "format": FORMAT,
        "counters": list(model.counters),
        "coefficients": {
            name: float(value) for name, value in model.coefficients.items()
        },
        "cov_type": model.cov_type,
        "fit": {
            "rsquared": model.rsquared,
            "rsquared_adj": model.rsquared_adj,
            "nobs": model.ols.nobs,
            "bse": [float(v) for v in model.ols.bse],
        },
    }


def _number(value, what: str) -> float:
    """``value`` as a finite float, or :class:`ValueError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range: {value!r}") from None
    if not np.isfinite(out):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return out


def model_from_dict(payload: Dict) -> FittedPowerModel:
    """Restore a fitted model from :func:`model_to_dict` output.

    The restored object predicts and attributes exactly; residual
    vectors of the original fit are not persisted (they belong to the
    calibration data, not the model).  A malformed payload — wrong
    types, non-finite coefficients or standard errors, a missing R², an
    unknown ``cov_type`` — raises :class:`ValueError`.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"model file must hold a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"unsupported model format {payload.get('format')!r}; "
            f"expected {FORMAT!r}"
        )
    counters = payload.get("counters")
    if not isinstance(counters, list) or not all(
        isinstance(c, str) and c for c in counters
    ):
        raise ValueError("'counters' must be a list of counter names")
    if len(set(counters)) != len(counters):
        raise ValueError(f"duplicate counters in model file: {counters}")
    counters = tuple(counters)
    coeffs = payload.get("coefficients")
    if not isinstance(coeffs, dict):
        raise ValueError("'coefficients' must be an object of name -> value")
    fit = payload.get("fit", {})
    if not isinstance(fit, dict):
        raise ValueError("'fit' must be an object")
    cov_type = payload.get("cov_type", "HC3")
    if cov_type not in _HC_KINDS:
        raise ValueError(f"cov_type must be one of {_HC_KINDS}, got {cov_type!r}")
    names = feature_names(counters)
    missing = [n for n in names if n not in coeffs]
    if missing:
        raise ValueError(f"model file missing coefficients: {missing}")
    params = np.array(
        [_number(coeffs[n], f"coefficient {n!r}") for n in names], dtype=np.float64
    )
    raw_bse = fit.get("bse", [0.0] * len(names))
    if not isinstance(raw_bse, list) or len(raw_bse) != len(names):
        raise ValueError("standard-error vector does not match coefficients")
    bse = np.array([_number(v, "standard error") for v in raw_bse], dtype=np.float64)
    if np.any(bse < 0) or np.any(bse > _MAX_BSE):
        raise ValueError(
            "standard errors must be non-negative with a finite variance"
        )
    nobs = fit.get("nobs", len(params))
    if isinstance(nobs, bool) or not isinstance(nobs, int) or nobs < 1:
        raise ValueError(f"'nobs' must be a positive integer, got {nobs!r}")
    missing = [f"fit.{k}" for k in ("rsquared", "rsquared_adj") if k not in fit]
    if missing:
        raise ValueError(f"model file missing {missing}")
    r2, r2_adj = (_number(fit[k], k) for k in ("rsquared", "rsquared_adj"))
    ols = OLSResult(
        params=params,
        bse=bse,
        cov_params=np.diag(bse**2),
        rsquared=r2,
        rsquared_adj=r2_adj,
        nobs=nobs,
        df_model=len(params),
        df_resid=max(nobs - len(params), 1),
        cov_type=cov_type,
        fitted_values=np.array([]),
        residuals=np.array([]),
        exog_names=tuple(names),
        has_intercept=False,
    )
    return FittedPowerModel(counters=counters, ols=ols, cov_type=cov_type)


#: What :func:`save_model` does with a ``fail`` audit verdict: ignore
#: it, warn about it, or refuse to persist.
_GATES = ("off", "warn", "strict")


def _audit_gate(model: FittedPowerModel, audit, gate: str) -> None:
    """Refuse (strict) or warn (warn) on persisting a fail-verdict model.

    A model whose audit verdict is ``fail`` — a numerically perfect or
    invalid fit — must not reach deployment silently: once serialized,
    the residuals and design that would reveal the problem are gone.
    """
    from repro.audit import AuditGateError, audit_model

    if gate not in _GATES:
        raise ValueError(f"gate must be one of {_GATES}, got {gate!r}")
    if gate == "off":
        return
    report = audit if audit is not None else audit_model(model)
    if not report.worst_at_least("fail"):
        return
    detail = "; ".join(f.format() for f in report.findings)
    message = (
        f"model audit verdict is {report.verdict!r}: {detail}"
    )
    if gate == "strict":
        raise AuditGateError(message)
    _warnings.warn(
        f"persisting a fail-verdict model anyway (gate={gate!r}): "
        f"{message}",
        stacklevel=3,
    )


def save_model(
    model: FittedPowerModel,
    path: Union[str, Path],
    *,
    audit=None,
    gate: str = "warn",
) -> None:
    """Write the model to a JSON file (atomically: a crash mid-write
    must never leave a half-serialized model for deployment to load).

    Persistence is audit-gated: ``gate`` decides what a ``fail`` audit
    verdict does — ``off`` ignores it, ``warn`` (the default) emits a
    warning, ``strict`` raises :class:`~repro.audit.AuditGateError` and
    writes nothing.  Pass a precomputed ``audit`` report to skip
    re-auditing.
    """
    _audit_gate(model, audit, gate)
    atomic_write_text(Path(path), json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path: Union[str, Path]) -> FittedPowerModel:
    """Read a model written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
