import hashlib
import json
from importlib import resources

import pytest

from helpers import make_dataset

from srloop.data import load_builtin
from srloop.expressions import OperatorSet
from srloop.prompts import (
    BEGIN_MARKER,
    END_MARKER,
    MAX_DECIMALS,
    DataView,
    InvalidFeedbackError,
    MissingDataError,
    PromptConfig,
    SampleTooLargeError,
    build_initial,
    build_iteration,
    build_system,
    extra_instruction,
    extract_expressions,
    make_data_view,
    operator_note,
    retry_reminder,
)

KEPLER_CONTEXT = load_builtin("kepler").context
FEEDBACK = json.dumps([
    {"equation": "c1*x1", "complexity": 3, "mse": 4.0},
    {"equation": "c1*x1+c2", "complexity": 5, "mse": 2.5},
    {"equation": "c1*x1/(c2+x1)", "complexity": 7, "mse": 0.01},
])


def view(**kwargs):
    d = make_dataset([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    return make_data_view(d, **kwargs)


def cfg(**kwargs):
    kwargs.setdefault("operator_note", operator_note(OperatorSet.easy()))
    return PromptConfig(**kwargs)


class TestDataView:
    def test_rounding(self):
        d = make_dataset([2.718281], [1.414213])
        v = make_data_view(d, rounding=3)
        assert v.rows == ("2.718, 1.414",)

    def test_most_decimals(self):
        # the refusals of a rounding_decimals above MAX_DECIMALS are in test_cli
        d = make_dataset([2.718281], [1.0])
        assert cfg(rounding_decimals=MAX_DECIMALS).rounding_decimals == 17
        assert make_data_view(d, rounding=17).rows == ("2.71828100000000017, 1.00000000000000000",)

    def test_full_precision_by_default(self):
        d = make_dataset([2.718281], [1.0])
        assert make_data_view(d).rows == ("2.718281, 1.0",)

    def test_subsample_deterministic_and_nested(self):
        d = load_builtin("nikuradse")
        s1 = make_data_view(d, subsample=36, seed=9)
        s1_again = make_data_view(d, subsample=36, seed=9)
        s2 = make_data_view(d, subsample=72, seed=9)
        assert s1.indices == s1_again.indices
        assert set(s1.indices) < set(s2.indices)
        assert len(s1.rows) == 36 and s1.n_total == 360

    def test_sample_too_large(self):
        with pytest.raises(SampleTooLargeError):
            view(subsample=10)


class TestSystem:
    def test_stable_and_nonempty(self):
        a, b = build_system(), build_system()
        assert a and hashlib.sha256(a.encode()) .hexdigest() == hashlib.sha256(b.encode()).hexdigest()

    def test_no_dataset_content(self):
        assert "Data (" not in build_system()


class TestInitial:
    def test_kepler_context_present(self):
        prompt = build_initial(view(), KEPLER_CONTEXT, cfg())
        assert "semi-major axis" in prompt
        assert "period in days" in prompt

    def test_scratchpad_gating(self):
        on = build_initial(view(), None, cfg())
        off = build_initial(view(), None, cfg(use_scratchpad=False))
        assert "scratchpad" in on and "scratchpad" not in off

    def test_context_gating(self):
        off = build_initial(view(), KEPLER_CONTEXT, cfg(use_context=False))
        assert "semi-major axis" not in off

    def test_data_gating(self):
        on = build_initial(view(), None, cfg())
        off = build_initial(view(), None, cfg(include_data=False))
        assert "Data (3 rows" in on and "Data (" not in off
        assert "1.0, 2.0" in on and "1.0, 2.0" not in off

    def test_no_example_equations(self):
        prompt = build_initial(view(), KEPLER_CONTEXT, cfg())
        assert "=" not in prompt.replace(BEGIN_MARKER, "").replace(END_MARKER, "")

    def test_required_instructions(self):
        prompt = build_initial(view(), None, cfg(n_expressions=4))
        assert "exactly 4" in prompt
        assert "every input variable" in prompt
        assert "implicit" in prompt
        assert "c1, c2" in prompt
        assert BEGIN_MARKER in prompt and END_MARKER in prompt

    def test_missing_data_error(self):
        empty = DataView(variables=("x1",), rows=(), indices=None, n_total=0)
        with pytest.raises(MissingDataError):
            build_initial(empty, None, cfg())

    def test_pure_function(self):
        assert build_initial(view(), KEPLER_CONTEXT, cfg()) == build_initial(
            view(), KEPLER_CONTEXT, cfg()
        )


class TestIteration:
    def test_feedback_embedded_verbatim(self):
        prompt = build_iteration(view(), FEEDBACK, None, cfg())
        assert FEEDBACK in prompt
        for equation in ("c1*x1", "c1*x1+c2", "c1*x1/(c2+x1)"):
            assert equation in prompt

    def test_sr_similar_note_always_present(self):
        prompt = build_iteration(view(), "[]", None, cfg())
        assert "x1+c1" in prompt and "x1-c1" in prompt
        assert "c1*(c2+x1)" in prompt

    def test_diversity_and_both_objectives(self):
        prompt = build_iteration(view(), "[]", None, cfg())
        assert "diverse" in prompt
        assert "complexity and loss" in prompt

    def test_invalid_feedback(self):
        with pytest.raises(InvalidFeedbackError):
            build_iteration(view(), "{not json", None, cfg())

    def test_mae_challenge_has_number_but_no_model(self):
        extra = extra_instruction("mae_challenge", target_mae="0.00392", target_complexity=37)
        prompt = build_iteration(view(), "[]", None, cfg(extra_instructions=(extra,)))
        assert "0.00392" in prompt
        assert "37" in prompt
        assert "log(" not in extra and "exp(" not in extra


class TestOperatorNote:
    def test_easy(self):
        assert operator_note(OperatorSet.easy()) == (
            "Allowed operators: binary +, -, *, /. Use no other operators or functions."
        )

    def test_hard(self):
        note = operator_note(OperatorSet.hard())
        assert "binary +, -, *, /" in note
        assert "unary sqrt, log, exp, square, cube" in note

    def test_kepler_extra(self):
        assert "unary sqrt" in operator_note(OperatorSet.easy(("sqrt",)))

    def test_bode_extras(self):
        note = operator_note(OperatorSet.easy(("^", "exp")))
        assert "binary +, -, *, /, ^" in note
        assert "unary exp" in note


class TestExtract:
    def test_plain_lines(self):
        text = f"thinking...\n{BEGIN_MARKER}\nc1*x1\nc1+x1\n{END_MARKER}\ntrailing"
        assert extract_expressions(text, 3) == ["c1*x1", "c1+x1"]

    def test_cleanup_of_bullets_and_backticks(self):
        text = f"{BEGIN_MARKER}\n1. c1*x1\n- c2/x1\n`c1+x1`\n\n{END_MARKER}"
        assert extract_expressions(text, 5) == ["c1*x1", "c2/x1", "c1+x1"]

    def test_cap_at_limit(self):
        text = f"{BEGIN_MARKER}\na+c1\nb*c1\nc1/x1\nc1-x1\n{END_MARKER}"
        assert len(extract_expressions(text, 2)) == 2

    def test_missing_markers(self):
        assert extract_expressions("no markers here", 3) == []
        assert extract_expressions(f"{BEGIN_MARKER}\nnever closed", 3) == []

    def test_retry_reminder_mentions_markers(self):
        text = retry_reminder(cfg())
        assert BEGIN_MARKER in text and END_MARKER in text


def test_ablation_matrix():
    """The four experiment settings gate exactly their block."""
    base = dict(context=KEPLER_CONTEXT)
    all_tools = build_initial(view(), KEPLER_CONTEXT, cfg())
    no_context = build_initial(view(), KEPLER_CONTEXT, cfg(use_context=False))
    no_data = build_initial(view(), KEPLER_CONTEXT, cfg(include_data=False))
    no_scratchpad = build_initial(view(), KEPLER_CONTEXT, cfg(use_scratchpad=False))
    assert "Background:" in all_tools and "Data (" in all_tools and "scratchpad" in all_tools
    assert "Background:" not in no_context and "Data (" in no_context
    assert "Data (" not in no_data and "Background:" in no_data
    assert "scratchpad" not in no_scratchpad and "Data (" in no_scratchpad


def test_template_files_are_read_once(monkeypatch):
    from srloop import prompts

    reads = []

    class CountingResources:
        @staticmethod
        def files(package):
            reads.append(package)
            return resources.files(package)

    prompts._template.cache_clear()
    monkeypatch.setattr(prompts, "resources", CountingResources)
    try:
        first = build_system(), build_iteration(view(), FEEDBACK, KEPLER_CONTEXT, cfg())
        assert reads
        reads.clear()
        assert (build_system(), build_iteration(view(), FEEDBACK, KEPLER_CONTEXT, cfg())) == first
        assert not reads
        # a missing template is not remembered: it fails again the same way
        for _ in range(2):
            with pytest.raises(FileNotFoundError):
                extra_instruction("no_such_extra")
    finally:
        prompts._template.cache_clear()
