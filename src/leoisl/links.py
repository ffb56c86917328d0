"""Link-budget models for the three RF link classes.

RF classes (satellite-to-air, ground-to-air, ground-to-satellite) use free
space path loss plus a Shannon capacity over a kT*B noise floor. Laser
inter-satellite links are a fixed-rate pipe with no budget here: the
optical power budget is out of scope, and their rate is the scenario's
``topology.laser_rate_bps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .orbits import check_fields

SPEED_OF_LIGHT_KM_S = 299792.458
BOLTZMANN_J_PER_K = 1.380649e-23

SAT_TO_AIR = "sat_to_air"
GROUND_TO_AIR = "ground_to_air"
GROUND_TO_SAT = "ground_to_sat"
ISL_LASER = "isl_laser"
RF_CLASSES = (SAT_TO_AIR, GROUND_TO_AIR, GROUND_TO_SAT)
LINK_CLASSES = (*RF_CLASSES, ISL_LASER)


@dataclass(frozen=True)
class LinkBudgetParams:
    """The free-space budget of one RF class; every field enters
    ``rf_terms``. A scenario holds one per class in ``RF_CLASSES``."""

    tx_power_w: float
    tx_gain_db: float
    rx_gain_db: float
    carrier_hz: float
    bandwidth_hz: float
    noise_temperature_k: float = 290.0

    def __post_init__(self) -> None:
        check_fields(self, (
            *((f.name, "finite", math.isfinite) for f in fields(self)),
            ("tx_power_w", "> 0", lambda v: v > 0),
            ("bandwidth_hz", "> 0", lambda v: v > 0),
            ("carrier_hz", "> 0", lambda v: v > 0),
            ("noise_temperature_k", "> 0", lambda v: v > 0),
        ))


def default_link_params() -> dict[str, LinkBudgetParams]:
    """Baseline RF budgets: 5 W satellites, 10 W ground stations,
    40/30/52 dB satellite/aircraft/ground antenna gains, and 100 MHz
    channels at 15/18/30 GHz."""
    return {
        SAT_TO_AIR: LinkBudgetParams(
            tx_power_w=5.0,
            tx_gain_db=40.0,
            rx_gain_db=30.0,
            carrier_hz=15.0e9,
            bandwidth_hz=100.0e6,
        ),
        GROUND_TO_AIR: LinkBudgetParams(
            tx_power_w=10.0,
            tx_gain_db=52.0,
            rx_gain_db=30.0,
            carrier_hz=18.0e9,
            bandwidth_hz=100.0e6,
        ),
        GROUND_TO_SAT: LinkBudgetParams(
            tx_power_w=10.0,
            tx_gain_db=52.0,
            rx_gain_db=40.0,
            carrier_hz=30.0e9,
            bandwidth_hz=100.0e6,
        ),
    }


def fspl_db(distance_km: float, carrier_hz: float) -> float:
    """Free-space path loss: 92.45 + 20*log10(f_GHz) + 20*log10(d_km)."""
    if distance_km <= 0:
        raise ValueError(f"distance_km must be > 0, got {distance_km}")
    if carrier_hz <= 0:
        raise ValueError(f"carrier_hz must be > 0, got {carrier_hz}")
    return 92.45 + 20.0 * math.log10(carrier_hz / 1e9) + 20.0 * math.log10(distance_km)


def rf_terms(params: LinkBudgetParams, distance_km: float) -> tuple[float, float]:
    """Received power and full-band noise power ``k*T*B`` (both W) of an RF
    link: the share-independent terms of its Shannon rate."""
    rx_dbw = (
        10.0 * math.log10(params.tx_power_w)
        + params.tx_gain_db
        + params.rx_gain_db
        - fspl_db(distance_km, params.carrier_hz)
    )
    noise_w = BOLTZMANN_J_PER_K * params.noise_temperature_k * params.bandwidth_hz
    return 10.0 ** (rx_dbw / 10.0), noise_w


def capacity_bps(
    params: LinkBudgetParams, distance_km: float, bandwidth_share: float = 1.0
) -> float:
    """Shannon rate ``B' * log2(1 + SNR)`` of an RF link, with ``B'`` the
    granted bandwidth slice and the SNR recomputed over that slice."""
    if bandwidth_share <= 0:
        raise ValueError(f"bandwidth_share must be > 0, got {bandwidth_share}")
    if distance_km <= 0:
        raise ValueError(f"distance_km must be > 0, got {distance_km}")
    rx_w, noise_w = rf_terms(params, distance_km)
    return shannon_bps(params.bandwidth_hz, rx_w, noise_w, bandwidth_share)


def shannon_bps(bandwidth_hz: float, rx_w: float, noise_w: float, share: float) -> float:
    """Shannon rate ``B*x * log2(1 + rx / (noise*x))`` of a ``share`` x of a band
    ``B`` with full-band received power ``rx_w`` and noise power ``noise_w``."""
    return bandwidth_hz * share * math.log2(1.0 + rx_w / (noise_w * share))


def propagation_delay_s(distance_km: float | np.ndarray) -> float | np.ndarray:
    """Straight-line propagation delay in vacuum, of one distance or,
    elementwise, of an array of them. A negative entry is rejected, and the
    error names the smallest."""
    if np.any(np.less(distance_km, 0)):
        raise ValueError(f"distance_km must be >= 0, got {np.nanmin(distance_km)}")
    return distance_km / SPEED_OF_LIGHT_KM_S
