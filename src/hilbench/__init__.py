"""hilbench: deterministic closed-loop evaluation harness for miniature
driving stacks.

Subsystems:
  core          event stages, seeded substreams, audit records and log
  spatial       reference-path projection, cross/along-track error, summaries
  temporal      per-cycle latency decomposition and statistics
  plant         FOPDT actuator channels, kinematic bicycle, identification
  links         pose-sync pipeline and command link with perturbation injector
  registration  rigid/affine/hybrid calibration ladder and its benchmark
  safety        body time-to-collision, minimum-gap traces, event extraction
  sut           black-box controller contract and the pure-pursuit reference
  orchestrator  discrete-event loop with the run's clock and correlation IDs,
                workflow stages, reports, log replay
  cli           command-line entry point
"""

__version__ = "0.1.0"
