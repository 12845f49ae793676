"""Prompt construction from data views, context, operator restrictions and feedback.

All prompt text ships as template files (``srloop/templates``) with
``string.Template`` placeholders, so prompt engineering is data, not code.
Builders are pure functions: identical inputs give byte-identical prompts.
Prompts never contain example equations — models copy them.
"""

from __future__ import annotations

import functools
import json
import re
import string
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .expressions import BINARY_OPERATORS, FUNCTIONS, Dialect, OperatorSet

#: The most decimals a prompt cell is rounded to. More only lengthen every
#: cell (a count in the billions raises from the format); a cell left
#: unrounded (None) prints every digit of its float by repr.
MAX_DECIMALS = 17

BEGIN_MARKER = "BEGIN_EXPRESSIONS"
END_MARKER = "END_EXPRESSIONS"

_DIALECT_NOTES = {
    Dialect.INFIX: (
        "Write each expression as a plain arithmetic string using only the "
        "allowed operators, the input variables, and symbolic constants."
    ),
    Dialect.LATEX: (
        "Write each expression as a simple LaTeX formula using only the "
        "allowed operators, the input variables, and symbolic constants."
    ),
}


class MissingDataError(ValueError):
    """include_data is on but the data view has no rows."""


class InvalidFeedbackError(ValueError):
    """The feedback block is not parseable JSON."""


class SampleTooLargeError(ValueError):
    """Requested more prompt rows than the dataset has."""


@dataclass(frozen=True)
class PromptConfig:
    """Which blocks a prompt carries and how many expressions are requested."""

    use_scratchpad: bool = True
    use_context: bool = True
    include_data: bool = True
    n_expressions: int = 3
    operator_note: str = ""
    extra_instructions: tuple[str, ...] = ()
    rounding_decimals: int | None = None
    dialect: Dialect = Dialect.INFIX

    def __post_init__(self):
        if self.n_expressions < 1:
            raise ValueError("n_expressions must be >= 1")
        if self.rounding_decimals is not None and not 0 <= self.rounding_decimals <= MAX_DECIMALS:
            raise ValueError(f"rounding_decimals must be in [0, {MAX_DECIMALS}], "
                             f"not {self.rounding_decimals}")


@dataclass(frozen=True)
class DataView:
    """Rows of a dataset rendered for a prompt. Rounding and subsampling apply
    only to this rendering; fitting always uses the full-precision dataset."""

    variables: tuple[str, ...]
    rows: tuple[str, ...]
    indices: tuple[int, ...] | None
    n_total: int


@functools.cache  # a template file is read once per process
def _template(name: str) -> string.Template:
    text = (resources.files("srloop.templates") / f"{name}.txt").read_text()
    return string.Template(text)


def extra_instruction(name: str, **values) -> str:
    """Render a named extra-instruction template (long_a, long_b, mae_challenge)."""
    return _template(f"extra_{name}").safe_substitute(**values).strip()


def _format_value(v: float, rounding: int | None) -> str:
    if rounding is None:
        return repr(float(v))
    return f"{v:.{rounding}f}"


def make_data_view(dataset, rounding: int | None = None, subsample: int | None = None,
                   seed: int = 0) -> DataView:
    """Render dataset rows for the prompt, optionally rounded and subsampled.

    Subsampling is deterministic for a seed, and a larger sample drawn with
    the same seed is a superset of a smaller one (both are prefixes of one
    shuffled row order).
    """
    n = dataset.n_rows
    indices = None
    chosen = np.arange(n)
    if subsample is not None:
        if subsample > n:
            raise SampleTooLargeError(f"asked for {subsample} of {n} rows")
        perm = np.random.default_rng(seed).permutation(n)
        chosen = np.sort(perm[:subsample])
        indices = tuple(int(i) for i in chosen)
    rows = []
    for i in chosen:
        cells = [_format_value(v, rounding) for v in dataset.X[i]]
        cells.append(_format_value(dataset.y[i], rounding))
        rows.append(", ".join(cells))
    return DataView(
        variables=tuple(dataset.variables),
        rows=tuple(rows),
        indices=indices,
        n_total=n,
    )


def operator_note(opset: OperatorSet) -> str:
    binary = [op for op in BINARY_OPERATORS if op in opset.binary]
    unary = [op for op in FUNCTIONS if op in opset.unary]
    note = f"Allowed operators: binary {', '.join(binary)}"
    if unary:
        note += f"; unary {', '.join(unary)}"
    note += ". Use no other operators or functions."
    return note


def build_system() -> str:
    """The fixed system message; carries no dataset content."""
    return _template("system").template.strip()


def _data_block(view: DataView, cfg: PromptConfig) -> str:
    if not cfg.include_data:
        return ""
    if not view.rows:
        raise MissingDataError("include_data is on but the data view is empty")
    columns = ", ".join(list(view.variables) + ["y"])
    if len(view.rows) < view.n_total:
        head = f"Data ({len(view.rows)} of {view.n_total} rows; columns: {columns}):"
    else:
        head = f"Data ({view.n_total} rows; columns: {columns}):"
    return head + "\n```\n" + "\n".join(view.rows) + "\n```\n"


def _common_fields(view: DataView, context: str | None, cfg: PromptConfig) -> dict:
    return {
        "n_expressions": cfg.n_expressions,
        "variables": ", ".join(view.variables),
        "context_block": f"Background: {context}\n" if cfg.use_context and context else "",
        "data_block": _data_block(view, cfg),
        "operator_note": cfg.operator_note,
        "dialect_note": _DIALECT_NOTES[cfg.dialect],
        "extra_block": "".join(f"- {line}\n" for line in cfg.extra_instructions),
        "scratchpad_block": (_template("scratchpad").template.strip() + "\n"
                             if cfg.use_scratchpad else ""),
        "begin_marker": BEGIN_MARKER,
        "end_marker": END_MARKER,
    }


def build_initial(view: DataView, context: str | None, cfg: PromptConfig) -> str:
    """The first prompt of a run: data and instructions, no feedback."""
    return _template("initial").substitute(_common_fields(view, context, cfg))


def build_iteration(view: DataView, feedback_json: str, context: str | None,
                    cfg: PromptConfig) -> str:
    """A feedback-round prompt: everything in the initial prompt plus the score
    table and the note about constant-placement-equivalent expressions."""
    try:
        json.loads(feedback_json)
    except (TypeError, ValueError) as exc:
        raise InvalidFeedbackError(f"feedback is not valid JSON: {exc}") from exc
    fields = _common_fields(view, context, cfg)
    fields["feedback_block"] = feedback_json
    fields["sr_note"] = _template("sr_similar").template.strip()
    return _template("iteration").substitute(fields)


def retry_reminder(cfg: PromptConfig) -> str:
    return _template("retry_reminder").substitute(
        n_expressions=cfg.n_expressions, begin_marker=BEGIN_MARKER, end_marker=END_MARKER
    ).strip()


_ENUM_PREFIX = re.compile(r"^(?:[-*]|\d+[.)])\s+")


def extract_expressions(text: str, limit: int) -> list[str]:
    """Pull candidate strings from between the output markers.

    Returns at most ``limit`` cleaned lines; an empty list when the markers are
    missing or enclose nothing usable.
    """
    lines = text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines) if ln.strip() == BEGIN_MARKER)
        end = next(i for i, ln in enumerate(lines[start + 1:], start + 1)
                   if ln.strip() == END_MARKER)
    except StopIteration:
        return []
    found = []
    for raw in lines[start + 1:end]:
        cleaned = _ENUM_PREFIX.sub("", raw.strip()).strip("`").strip()
        if cleaned:
            found.append(cleaned)
        if len(found) >= limit:
            break
    return found
