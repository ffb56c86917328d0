"""Constellation geometry, ISL topology, snapshot routing, and aircraft
content-delivery optimization for LEO shells with inter-satellite links."""

from .delivery import (
    DeliveryPlan,
    FileRequest,
    RequestPlan,
    SlotContext,
    build_slot_context,
    optimal_ratio_delay,
    plan_cached,
    plan_non_cached,
    run_slot,
    sweep_max_isls,
)
from .links import LinkBudgetParams, capacity_bps, fspl_db, propagation_delay_s
from .orbits import (
    ConstellationConfig,
    GroundNode,
    SatelliteState,
    elevation_deg,
    elevations_deg,
    generate_walker,
    ground_position,
    propagate,
    propagate_arrays,
    visible,
)
from .routing import (
    Path,
    ground_pair_hop_stats,
    min_hop_path,
    sdp_mhp_fraction,
    shortest_distance_path,
)
from .scenario import Scenario, default_scenario, load_scenario, save_scenario
from .topology import (
    LinkEdge,
    TopologySnapshot,
    attach_ground_links,
    build_dynamic_topology,
    build_grid_topology,
    build_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "ConstellationConfig",
    "DeliveryPlan",
    "FileRequest",
    "GroundNode",
    "LinkBudgetParams",
    "LinkEdge",
    "Path",
    "RequestPlan",
    "SatelliteState",
    "Scenario",
    "SlotContext",
    "TopologySnapshot",
    "attach_ground_links",
    "build_dynamic_topology",
    "build_grid_topology",
    "build_slot_context",
    "build_snapshot",
    "capacity_bps",
    "default_scenario",
    "elevation_deg",
    "elevations_deg",
    "fspl_db",
    "generate_walker",
    "ground_pair_hop_stats",
    "ground_position",
    "load_scenario",
    "min_hop_path",
    "optimal_ratio_delay",
    "plan_cached",
    "plan_non_cached",
    "propagate",
    "propagate_arrays",
    "propagation_delay_s",
    "run_slot",
    "save_scenario",
    "sdp_mhp_fraction",
    "shortest_distance_path",
    "sweep_max_isls",
    "visible",
]
