"""Dielectric loss accounting for superconducting resonators.

Two complementary views of the same physics live here. The saturable
two-level-system model gives the power-dependent internal loss that fits
measured Q versus photon number. The participation budget multiplies each
dielectric's energy participation by its loss tangent to predict the
unsaturated internal loss of a given material stack, and inverts that
product to extract an unknown loss tangent from a measured Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Any, Mapping, Sequence

from .errors import BudgetError, InputError
from .jsonfile import check_keys, read_versioned

#: photon saturation level assumed when a loss-component row does not give one
N_C_DEFAULT = 1.0

#: saturation exponent for non-interacting two-level systems
BETA_DEFAULT = 0.5

COMPONENT_TABLE_RESOURCE = "data/loss_components.json"


@dataclass(frozen=True)
class LossComponent:
    """One dielectric's contribution to the internal loss.

    participation is the energy-weighted participation ratio of the
    dielectric, tan_delta its intrinsic loss tangent, and n_c and beta the
    saturation photon number and exponent of its two-level-system bath.
    """

    name: str
    participation: float
    tan_delta: float
    n_c: float = N_C_DEFAULT
    beta: float = BETA_DEFAULT

    def __post_init__(self) -> None:
        if not 0.0 <= self.participation <= 1.0:
            raise InputError(
                f"participation of {self.name!r} must lie in [0, 1], "
                f"got {self.participation!r}"
            )
        if not self.tan_delta >= 0.0:
            raise InputError(
                f"tan_delta of {self.name!r} must be non-negative, got {self.tan_delta!r}"
            )
        if not self.n_c > 0.0:
            raise InputError(f"n_c of {self.name!r} must be positive, got {self.n_c!r}")
        if not 0.0 < self.beta <= 1.0:
            raise InputError(
                f"beta of {self.name!r} must lie in (0, 1], got {self.beta!r}"
            )

    @property
    def unsaturated_loss(self) -> float:
        return self.participation * self.tan_delta


@dataclass(frozen=True)
class TlsModel:
    """Saturable loss components plus a power-independent background."""

    components: tuple[LossComponent, ...]
    q0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.q0 > 0.0:
            raise InputError(f"q0 must be positive, got {self.q0!r}")
        if not self.components and not math.isfinite(self.q0):
            raise InputError(
                "a loss model needs at least one component or a finite q0"
            )


@dataclass(frozen=True)
class Region:
    """A sub-region of the resonator layout with its stored-energy share."""

    name: str
    energy_fraction: float
    participation: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.energy_fraction <= 1.0:
            raise InputError(
                f"energy fraction of region {self.name!r} must lie in [0, 1]"
            )


#: quoted energy fractions are rounded to a tenth of a percent, so their sum
#: is allowed to miss unity by up to half a percent
ENERGY_SUM_TOLERANCE = 5e-3


@dataclass(frozen=True)
class RegionEnergySplit:
    """Partition of the stored energy over layout regions."""

    regions: tuple[Region, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise InputError("an energy split needs at least one region")
        total = sum(r.energy_fraction for r in self.regions)
        if abs(total - 1.0) > ENERGY_SUM_TOLERANCE:
            raise InputError(
                f"region energy fractions sum to {total:.4f}, expected 1 "
                f"within {ENERGY_SUM_TOLERANCE:.1%}"
            )


@dataclass(frozen=True)
class BudgetResult:
    """Per-component and total unsaturated loss with the implied Q."""

    per_component: tuple[tuple[str, float], ...]
    total_loss: float
    q_factor: float


def qi_inverse(model: TlsModel, n):
    """Power-dependent internal loss 1/Q_i at mean photon number n.

    Each component's loss saturates as (1 + n/n_c)^-beta; the background
    1/q0 does not. n may be a scalar or an array of photon numbers.
    """
    loss = qi_inverse_with_slope(model, n)[0]
    return float(loss) if loss.ndim == 0 else loss


def qi_inverse_with_slope(model: TlsModel, n) -> tuple[np.ndarray, np.ndarray]:
    """qi_inverse as an array of n's shape, and its slope d(1/Q_i)/d(ln n).

    A component's slope is -beta*n/(n + n_c) times its saturated loss.
    """
    import numpy as np  # here, not at the top: the loss-budget report runs without numpy

    occupancy = np.asarray(n, dtype=float)
    loss = np.full(occupancy.shape, 1.0 / model.q0)
    slope = np.zeros(occupancy.shape)
    for comp in model.components:
        s = 1.0 + occupancy / comp.n_c
        term = comp.unsaturated_loss / s ** comp.beta
        loss = loss + term
        # n/(n + n_c) as 1 - 1/s, which stays finite at n = inf
        slope = slope - comp.beta * term * (1.0 - 1.0 / s)
    return loss, slope


def budget_total(
    components: Sequence[LossComponent | tuple[float, float]],
    q0: float | None = None,
) -> BudgetResult:
    """Unsaturated loss budget: participation times loss tangent, summed.

    Accepts LossComponent entries or bare (participation, tan_delta) pairs.
    A total that is zero, infinite, or so small that its inverse overflows
    has no finite quality factor and is a BudgetError.
    """
    entries = [
        comp if isinstance(comp, LossComponent) else LossComponent(f"component_{j}", *comp)
        for j, comp in enumerate(components)
    ]
    per = [(comp.name, comp.unsaturated_loss) for comp in entries]
    total = sum(loss for _, loss in per)
    if q0 is not None:
        if not q0 > 0.0:
            raise InputError(f"q0 must be positive, got {q0!r}")
        total += 1.0 / q0
    q_factor = 1.0 / total if total > 0.0 else math.inf
    if not (math.isfinite(total) and math.isfinite(q_factor)):
        raise BudgetError(
            f"total loss {total!r} implies no finite quality factor"
        )
    return BudgetResult(tuple(per), total, q_factor)


def weighted_participation(split: RegionEnergySplit, dielectric: str) -> float:
    """Energy-weighted participation of one dielectric across all regions."""
    acc = 0.0
    for region in split.regions:
        if dielectric not in region.participation:
            raise InputError(
                f"region {region.name!r} gives no participation for "
                f"{dielectric!r}; provide 0 explicitly if it is absent there"
            )
        acc += region.energy_fraction * region.participation[dielectric]
    return acc


def extract_tan_delta(
    measured_qi: float, participation: float, other_losses: float = 0.0
) -> float:
    """Loss tangent of one dielectric from a measured internal Q.

    Subtracts the known losses of everything else, then divides the residual
    by the dielectric's participation.
    """
    if not measured_qi > 0.0:
        raise InputError(f"measured_qi must be positive, got {measured_qi!r}")
    if not participation > 0.0:
        raise InputError(
            f"participation must be positive to attribute loss, got {participation!r}"
        )
    if not other_losses >= 0.0:
        raise InputError(f"other_losses must be non-negative, got {other_losses!r}")
    residual = 1.0 / measured_qi - other_losses
    if residual <= 0.0:
        raise BudgetError(
            f"known losses {other_losses:g} already exceed the measured loss "
            f"{1.0 / measured_qi:g}; the budget is inconsistent"
        )
    return residual / participation


def component_table_path() -> str:
    """Path of the component table bundled with the package."""
    return str(resources.files("cryomux") / COMPONENT_TABLE_RESOURCE)


def load_component_table(path: str | None = None) -> dict[str, tuple[LossComponent, ...]]:
    """Read a JSON table of per-sample loss components.

    With no path the table bundled with the package is used. The file maps
    sample names to component lists, whose rows loss_components reads.
    """
    source = component_table_path() if path is None else path
    return component_table(read_versioned(source), source)


def component_table(
    raw: Mapping[str, Any], source: str
) -> dict[str, tuple[LossComponent, ...]]:
    """Components per sample from a parsed table file (see load_component_table)."""
    known = ("format_version", "description", "samples")
    check_keys(raw, known, f"{source}: unknown component table keys")
    samples = raw.get("samples")
    if not isinstance(samples, dict) or not samples:
        raise InputError(f"{source}: expected a non-empty 'samples' mapping")
    table: dict[str, tuple[LossComponent, ...]] = {}
    for sample_name, entry in samples.items():
        rows = entry.get("components") if isinstance(entry, dict) else None
        if not isinstance(rows, list) or not rows:
            raise InputError(
                f"{source}: sample {sample_name!r} needs a non-empty "
                "'components' list"
            )
        where = f"{source}: sample {sample_name!r}"
        check_keys(entry, ("components", "note"), f"{where}: unknown keys")
        if not isinstance(entry.get("note", ""), str):
            raise InputError(f"{where}: 'note' must be a string, got {entry['note']!r}")
        table[sample_name] = loss_components(rows, where)
    return table


def loss_components(rows: Any, context: str) -> tuple[LossComponent, ...]:
    """LossComponents from a JSON list of row objects.

    participation and tan_delta are required; name defaults to component_{j}
    for row j (budget_total's label for a bare pair), n_c and beta to their
    defaults. Another key or a non-object row is an InputError naming both.
    """
    if not isinstance(rows, list):
        raise InputError(f"{context}: components must be a list, got {rows!r}")
    built = []
    for j, row in enumerate(rows):
        where = f"{context}: bad component row {j}"
        if not isinstance(row, dict):
            raise InputError(f"{where}: expected an object, got {row!r}")
        check_keys(row, [f.name for f in fields(LossComponent)], f"{where}: unknown keys")
        try:
            numbers = {key: float(value) for key, value in row.items() if key != "name"}
            built.append(LossComponent(str(row.get("name", f"component_{j}")), **numbers))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: {exc}") from exc
    return tuple(built)
