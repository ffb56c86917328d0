"""Walker-delta constellation geometry and circular two-body motion.

All positions are kilometres in an Earth-centered inertial frame. Satellites
follow circular Keplerian orbits around a spherical Earth; only ground nodes
feel Earth rotation (applied at the sidereal rate). Aircraft additionally
advance along a great circle at constant speed and cruise altitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
EARTH_MU_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.2921159e-5

GROUND_STATION = "ground_station"
AIRCRAFT = "aircraft"
GROUND_KINDS = (GROUND_STATION, AIRCRAFT)

# The largest epoch accepted, about 31.7 years. Motion angles such as
# ``n * epoch_s`` are rounded to a step that grows with the epoch: up to this
# bound an in-plane link keeps its epoch-0 length within 1e-5 km on any shell,
# while at 1e18 s the baseline's first one reads 2747.957 km for 2306.157 km.
MAX_EPOCH_S = 1e9

# The largest shell accepted, more than 60x Starlink shell 1 (1,584
# satellites). Loading a scenario names every satellite, and the in-range
# mesh grows with the square of the count, so a larger shell would fill memory
# before any command ran.
MAX_SATELLITES = 100_000


def check_fields(obj, rules, prefix: str = "", error: type[Exception] = ValueError) -> None:
    """Raise ``error`` at the first ``(field, rule, holds)`` of ``rules`` whose
    ``holds`` is false on ``obj``'s field, with the text ``f"{prefix}{field}
    must be {rule}, got {value}"``; a string value is shown by its repr."""
    for name, rule, holds in rules:
        value = getattr(obj, name)
        if not holds(value):
            shown = repr(value) if isinstance(value, str) else value
            raise error(f"{prefix}{name} must be {rule}, got {shown}")


def sat_key(plane: int, slot: int) -> str:
    """Canonical node id for the satellite at (plane, slot)."""
    return f"S{plane:03d}-{slot:03d}"


@dataclass(frozen=True)
class ConstellationConfig:
    """Walker-delta shell: evenly spaced planes of evenly spaced satellites.

    ``phasing_factor`` shifts the in-plane anomaly of consecutive planes by
    ``phasing_factor * 360 / (num_planes * sats_per_plane)`` degrees.
    """

    num_planes: int = 6
    sats_per_plane: int = 20
    altitude_km: float = 1000.0
    inclination_deg: float = 53.0
    phasing_factor: int = 1
    raan_spread_deg: float = 360.0

    def __post_init__(self) -> None:
        check_fields(self, (
            ("altitude_km", "finite", math.isfinite),
            ("raan_spread_deg", "finite", math.isfinite),
            ("num_planes", ">= 1", lambda v: v >= 1),
            ("sats_per_plane", ">= 1", lambda v: v >= 1),
            (
                "total_satellites",
                f"<= {MAX_SATELLITES} (num_planes * sats_per_plane)",
                lambda v: v <= MAX_SATELLITES,
            ),
            ("altitude_km", "> 0", lambda v: v > 0),
            ("inclination_deg", "within [0, 180]", lambda v: 0.0 <= v <= 180.0),
            ("phasing_factor", "within [0, num_planes-1]", lambda v: 0 <= v <= self.num_planes - 1),
            ("raan_spread_deg", "> 0", lambda v: v > 0),
        ))

    @property
    def total_satellites(self) -> int:
        return self.num_planes * self.sats_per_plane

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(EARTH_MU_KM3_S2 / self.semi_major_axis_km**3)

    @property
    def orbital_period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_s


@dataclass(frozen=True)
class GroundNode:
    """A ground station or an aircraft (great-circle motion, cruise altitude)."""

    node_id: str
    kind: str
    latitude_deg: float
    longitude_deg: float
    altitude_km: float = 0.0
    heading_deg: float = 0.0
    speed_km_s: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, (
            ("node_id", "non-empty", bool),
            ("kind", f"one of {GROUND_KINDS}", lambda v: v in GROUND_KINDS),
            ("longitude_deg", "finite", math.isfinite),
            ("altitude_km", "finite", math.isfinite),
            ("heading_deg", "finite", math.isfinite),
            ("speed_km_s", "finite", math.isfinite),
            ("latitude_deg", "within [-90, 90]", lambda v: -90.0 <= v <= 90.0),
        ))
        if self.kind == GROUND_STATION:
            for name in ("heading_deg", "speed_km_s"):
                if getattr(self, name) != 0.0:
                    raise ValueError(f"ground stations must have {name} == 0")
        check_fields(self, (
            ("speed_km_s", ">= 0", lambda v: v >= 0),
            ("altitude_km", ">= 0", lambda v: v >= 0),
        ))


@functools.lru_cache(maxsize=16)
def sat_keys(config: ConstellationConfig) -> tuple[str, ...]:
    """Node ids in shell index order (``plane * sats_per_plane + slot``), memoised per shell."""
    return tuple(sat_key(*divmod(i, config.sats_per_plane)) for i in range(config.total_satellites))


def generate_walker(config: ConstellationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Initial RAAN and in-plane anomaly (degrees) of every satellite, in
    shell index order.

    Plane ``p`` sits at RAAN ``p * raan_spread / num_planes``; slot ``s`` of
    plane ``p`` starts at anomaly
    ``s * 360/sats_per_plane + p * phasing_factor * 360/(num_planes*sats_per_plane)``.
    """
    plane, slot = np.divmod(np.arange(config.total_satellites), config.sats_per_plane)
    plane_step = config.raan_spread_deg / config.num_planes
    slot_step = 360.0 / config.sats_per_plane
    phase_step = config.phasing_factor * 360.0 / config.total_satellites
    return plane * plane_step, (slot * slot_step + plane * phase_step) % 360.0


def _cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # libm's cos and sin, one call per angle: numpy may dispatch its own
    # SIMD kernels, whose last bits differ from libm's on some machines.
    values = angles.tolist()
    return np.array([math.cos(x) for x in values]), np.array([math.sin(x) for x in values])


def _check_epoch(epoch_s: float) -> None:
    if not (math.isfinite(epoch_s) and epoch_s >= 0):
        raise ValueError(f"epoch_s must be finite and >= 0, got {epoch_s}")
    if epoch_s > MAX_EPOCH_S:
        raise ValueError(f"epoch_s must be <= 1e9 s (about 31.7 years), got {epoch_s}")


def propagate(config: ConstellationConfig, epoch_s: float) -> np.recarray:
    """The whole shell at ``epoch_s`` seconds after t=0, up to
    ``MAX_EPOCH_S``: one record per satellite in shell index order, with
    fields ``node_key`` (see :func:`sat_keys`), ``position_km`` and
    ``velocity_km_s``. The fields of the array are the shell arrays:
    ``.position_km`` is ``(N, 3)``.

    Circular two-body motion: every satellite moves at the shared mean motion
    ``sqrt(mu / a^3)`` along its plane, so ``|position| == a`` exactly and
    velocity stays perpendicular to position.
    """
    _check_epoch(epoch_s)
    a = config.semi_major_axis_km
    n = config.mean_motion_rad_s
    inc = math.radians(config.inclination_deg)
    cos_i, sin_i = math.cos(inc), math.sin(inc)
    raan_deg, anomaly_deg = generate_walker(config)
    cu, su = _cos_sin(np.radians(anomaly_deg) + n * epoch_s)
    co, so = _cos_sin(np.radians(raan_deg))
    x, y, z = a * (cu * co - su * cos_i * so), a * (cu * so + su * cos_i * co), a * su * sin_i
    vx, vy, vz = -su * co - cu * cos_i * so, -su * so + cu * cos_i * co, cu * sin_i
    keys = np.array(sat_keys(config))
    return np.rec.fromarrays(
        [keys, np.stack([x, y, z], axis=1), (a * n) * np.stack([vx, vy, vz], axis=1)],
        dtype=[("node_key", keys.dtype), ("position_km", float, 3), ("velocity_km_s", float, 3)],
    )


def ground_position(node: GroundNode, epoch_s: float) -> np.ndarray:
    """Inertial position of a ground node at ``epoch_s``, from 0 to ``MAX_EPOCH_S``.

    Ground stations rotate with the Earth. Aircraft first advance along
    their great circle (constant heading at departure, constant speed) and
    the Earth rotation is applied on top. At epoch 0 a node at
    (lat=0, lon=0, alt=0) sits at (R_E, 0, 0): zero Greenwich offset.
    """
    _check_epoch(epoch_s)
    radius = EARTH_RADIUS_KM + node.altitude_km
    lat = math.radians(node.latitude_deg)
    lon = math.radians(node.longitude_deg)
    unit = np.array(
        [
            math.cos(lat) * math.cos(lon),
            math.cos(lat) * math.sin(lon),
            math.sin(lat),
        ]
    )
    if node.kind == AIRCRAFT and node.speed_km_s > 0.0:
        east = np.array([-math.sin(lon), math.cos(lon), 0.0])
        north = np.array(
            [
                -math.sin(lat) * math.cos(lon),
                -math.sin(lat) * math.sin(lon),
                math.cos(lat),
            ]
        )
        heading = math.radians(node.heading_deg)
        direction = math.sin(heading) * east + math.cos(heading) * north
        theta = node.speed_km_s * epoch_s / radius
        unit = math.cos(theta) * unit + math.sin(theta) * direction
    spin = EARTH_ROTATION_RAD_S * epoch_s
    cs, ss = math.cos(spin), math.sin(spin)
    rotation = np.array([[cs, -ss, 0.0], [ss, cs, 0.0], [0.0, 0.0, 1.0]])
    return radius * (rotation @ unit)


def visible(pos_a: np.ndarray, pos_b: np.ndarray, grazing_altitude_km: float) -> bool:
    """Line-of-sight between two space nodes.

    True iff the segment a-b stays outside the sphere of radius
    ``R_E + grazing_altitude_km``. A zero-length segment is visible.
    """
    a = np.asarray(pos_a, dtype=float)
    b = np.asarray(pos_b, dtype=float)
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return True
    t = -float(a @ d) / dd
    t = min(1.0, max(0.0, t))
    closest = a + t * d
    return float(np.linalg.norm(closest)) >= EARTH_RADIUS_KM + grazing_altitude_km


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(..., 3)`` array.

    Bit-identical to ``float(np.linalg.norm(row))``: that is
    ``sqrt(row.dot(row))``, a BLAS dot, and ``np.vecdot`` runs the same dot
    on every row. ``einsum`` and ``(v * v).sum(1)`` round differently.
    """
    return np.sqrt(np.vecdot(vectors, vectors))


def visible_rows(
    pos_a: np.ndarray, pos_b: np.ndarray, grazing_altitude_km: float
) -> np.ndarray:
    """:func:`visible` of each row pair of two ``(N, 3)`` arrays.

    Same operations in the same order as the scalar form, with its dot
    products taken by ``np.vecdot``, so every decision matches it exactly.
    """
    a = np.asarray(pos_a, dtype=float).reshape(-1, 3)
    d = np.asarray(pos_b, dtype=float).reshape(-1, 3) - a
    dd = np.vecdot(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.vecdot(a, d) / dd, 0.0, 1.0)
    closest = a + t[:, None] * d
    return (dd == 0.0) | (row_norms(closest) >= EARTH_RADIUS_KM + grazing_altitude_km)


def elevation_deg(observer_pos: np.ndarray, target_pos: np.ndarray) -> float:
    """Elevation of ``target`` above the local horizon of ``observer``.

    The local zenith is the observer's radial direction (spherical Earth).
    Degenerate zero-range geometry reports 90 degrees.
    """
    obs = np.asarray(observer_pos, dtype=float)
    los = np.asarray(target_pos, dtype=float) - obs
    rng = float(np.linalg.norm(los))
    if rng == 0.0:
        return 90.0
    zenith = obs / float(np.linalg.norm(obs))
    s = float(zenith @ los) / rng
    s = min(1.0, max(-1.0, s))
    return math.degrees(math.asin(s))


def elevations_deg(observer_pos: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """:func:`elevation_deg` of every row of an ``(N, 3)`` ``positions`` array.

    From one ``(3,)`` observer the result is ``(N,)``; from ``(M, 3)``
    observers it is ``(M, N)``, each row bit for bit the one-observer
    result. Same zenith, clipping and zero-range (90 degrees) conventions.
    The sums run in another order than the scalar form's, so a result can
    differ from it in the last bits.
    """
    obs = np.asarray(observer_pos, dtype=float)
    los = np.asarray(positions, dtype=float).reshape(-1, 3) - obs[..., None, :]
    rng = np.linalg.norm(los, axis=-1)
    # One norm per observer, as the scalar form takes it.
    norms = [float(np.linalg.norm(o)) for o in obs.reshape(-1, 3)]
    zenith = obs / np.reshape(norms, obs.shape[:-1] + (1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((los * zenith[..., None, :]).sum(axis=-1) / rng, -1.0, 1.0)
    return np.where(rng == 0.0, 90.0, np.degrees(np.arcsin(s)))
