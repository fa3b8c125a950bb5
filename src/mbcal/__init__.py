"""Modular Bayesian calibration of computer-model parameters.

Subpackages: domain (data model), sampler (designs), gp (emulators),
sensitivity (screening and Sobol indices), mcmc (adaptive Metropolis),
calibration (likelihood assembly and posterior sampling), forward_uq
(propagation and validation), synthbench (synthetic benchmark), cli.
"""

__version__ = "0.2.0"
