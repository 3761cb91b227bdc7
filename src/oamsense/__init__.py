"""Design and noise-budget simulator for a torsional optomechanical detector
of optical orbital angular momentum.

Submodules:

* device    - tabulated mechanical-mode datasets (load / validate / interpolate)
* mechanics - two-coupled-oscillator dynamics, response curves, coupling fits
* noise     - noise-equivalent torque budget, power and photon-number limits
* beams     - scalar fields, LG modes, phase masks, propagation, mode metrics
* swg       - hexagonal pillar-grating layouts and their transmission masks
* table     - the CSV table writer behind every numeric output file
* cli       - the `oam-sense` command line front end
"""

from . import beams, constants, device, mechanics, noise, swg, table

__version__ = "0.1.0"

__all__ = [
    "beams",
    "cli",
    "constants",
    "device",
    "mechanics",
    "noise",
    "swg",
    "table",
    "__version__",
]


def __getattr__(name: str):
    # cli is imported on first access, not with the package, so that
    # `python -m oamsense.cli` finds no copy of it in sys.modules before
    # running it as __main__.
    if name == "cli":
        from importlib import import_module

        return import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
