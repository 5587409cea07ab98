"""Discrimination of two qubit channels with multi-shot measurement strategies."""

__version__ = "0.2.0"

from .channels import ChannelFamily, ChannelSpec
from .helstrom import HelstromResult, Povm, PovmCase, WeightedPair, optimal_povm
from .optimizer import OptResult, OptimizerConfig, maximize
from .strategies import (
    InputSchedule,
    StrategyEval,
    StrategyKind,
    eval_bayesian,
    eval_global,
    eval_markovian,
    simulate_protocol,
)

__all__ = [
    "ChannelFamily",
    "ChannelSpec",
    "HelstromResult",
    "InputSchedule",
    "OptResult",
    "OptimizerConfig",
    "Povm",
    "PovmCase",
    "StrategyEval",
    "StrategyKind",
    "WeightedPair",
    "eval_bayesian",
    "eval_global",
    "eval_markovian",
    "maximize",
    "optimal_povm",
    "simulate_protocol",
]
