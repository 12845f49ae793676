"""LLM-in-the-loop symbolic regression.

A chat model proposes candidate equations for a dataset, a derivative-free
optimizer fits their constants, a complexity/error Pareto store selects
feedback for the next prompt, and rediscovery of a known target model is
scored across independent runs.
"""

from .data import Dataset, load_builtin, load_csv
from .engine import RunConfig, RunLog, run, score_runs
from .expressions import (
    Dialect,
    Expression,
    OperatorSet,
    canonicalize,
    complexity,
    render,
    sr_equivalent,
)
from .llm import ChatRequest, ChatResponse, HttpBackend, ScriptedBackend, estimate_cost
from .optimize import FitConfig, FitResult, fit, repeat_fit
from .pareto import Candidate, CandidateStore, FeedbackPolicy, to_feedback_json
from .parsing import parse
from .prompts import PromptConfig, build_initial, build_iteration, build_system, make_data_view

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "CandidateStore",
    "ChatRequest",
    "ChatResponse",
    "Dataset",
    "Dialect",
    "Expression",
    "FeedbackPolicy",
    "FitConfig",
    "FitResult",
    "HttpBackend",
    "OperatorSet",
    "PromptConfig",
    "RunConfig",
    "RunLog",
    "ScriptedBackend",
    "build_initial",
    "build_iteration",
    "build_system",
    "canonicalize",
    "complexity",
    "estimate_cost",
    "fit",
    "load_builtin",
    "load_csv",
    "make_data_view",
    "parse",
    "render",
    "repeat_fit",
    "run",
    "score_runs",
    "sr_equivalent",
    "to_feedback_json",
]
