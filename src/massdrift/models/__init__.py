"""Model zoo: chain models, the length-preserving interval map, and the
homogeneous charts (lattice space, Schottky group)."""
from .boole import (BooleOrbitReport, BooleOrbitSpec, boole_orbit,
                    preimage_jacobian_sum)
from .chains import (FunnelChainSpec, build_cycle_model, build_funnel_chain,
                     build_lattice_model, build_two_component_model, cycle_law,
                     srw_law)
from .schottky import SchottkyGroup, translation_length

__all__ = [
    "BooleOrbitReport", "BooleOrbitSpec", "boole_orbit",
    "preimage_jacobian_sum", "FunnelChainSpec", "build_cycle_model",
    "build_funnel_chain", "build_lattice_model", "build_two_component_model",
    "cycle_law", "srw_law", "SchottkyGroup", "translation_length",
]
