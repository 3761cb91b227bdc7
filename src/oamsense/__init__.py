"""Design and noise-budget simulator for a torsional optomechanical detector
of optical orbital angular momentum.

Submodules, each imported on first access (oamsense.beams or
`from oamsense import beams`):

* device    - tabulated mechanical-mode datasets (load / validate / interpolate)
* mechanics - two-coupled-oscillator dynamics, response curves, coupling fits
* noise     - noise-equivalent torque budget, power and photon-number limits
* beams     - scalar fields, LG modes, phase masks, propagation, mode metrics
* swg       - hexagonal pillar-grating layouts and their transmission masks
* table     - the CSV table writer behind every numeric output file
* cli       - the `oam-sense` command line front end
"""

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
    # Each submodule is imported on first access, not with the package, so
    # that `import oamsense` costs only what a caller goes on to use, and
    # `python -m oamsense.cli` finds no copy of cli in sys.modules before
    # running it as __main__.
    if name in __all__:
        from importlib import import_module

        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
