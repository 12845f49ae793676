"""Seeded checks of the promises srloop makes about model text and endpoint bodies.

The parser either refuses a text with an ExpressionError or returns a tree
that survives render -> parse. A run fed mutated replies never aborts and
never hits a defect, stores only candidates that re-parse to their canonical
tree, and saves a log that replays with no divergence and exports a front.
Whatever an endpoint answers, ``HttpBackend.complete`` returns a text with
non-negative token counts or raises a ``BackendError``."""

import copy
import json
import math
import random
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from helpers import SOUP, mutate, random_expression, random_node, reply, token_soup

from srloop.cli import main
from srloop.data import builtin_ids, load_builtin
from srloop.engine import RunConfig, diff_replay, load_runlog_data, replay, run, save_runlog
from srloop.expressions import Dialect, Expression, ExpressionError, canonicalize, render
from srloop.llm import BackendConfig, BackendError, ChatRequest, HttpBackend, ScriptedBackend
from srloop.optimize import FitConfig
from srloop.parsing import parse
from srloop.prompts import PromptConfig

VARIABLES = ["x1", "x2"]
EXTREMES = [
    "x1" + "+x1" * 100,  # 201 nodes
    "(" * 150 + "x1" + ")" * 150,  # 150 deep
    "x1**-(1/2)", "x1**(1/0)", "x1**((-8)**(1/3))", "x1**(1e308*10)", "1e400*x1",
    "\u2212x1", "y = c1*x1 = x1", "{x1}+c1", "\\frac{c_1}{x_1}^{2}",
]


def texts(rng: random.Random, n: int):
    """``n`` renders of random trees, a mutation of each, and ``n`` token soups."""
    for i in range(n):
        text = render(Expression(random_node(rng, free_exponents=i % 2 == 1)))
        yield text
        yield mutate(rng, text)
        yield token_soup(rng, rng.randint(1, 12))


def test_parse_refuses_or_round_trips():
    rng = random.Random(13)
    parsed = 0
    for text in [*texts(rng, 1000), *EXTREMES, *SOUP]:
        for dialect in Dialect:
            try:
                e = parse(text, dialect, VARIABLES)
            except ExpressionError:
                continue
            parsed += 1
            assert parse(render(e), Dialect.INFIX, VARIABLES).root == e.root, (text, dialect)
    assert parsed > 2000  # most renders parse, so the round trip is checked, not skipped


def mutated_reply(rng: random.Random, n_vars: int) -> str:
    """A reply of 1 to 4 proposals, most of them mutated; now and then the
    mutation hits the reply around them."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        text = render(random_expression(rng, n_vars=n_vars, max_depth=3))
        lines.append(mutate(rng, text) if rng.random() < 0.7 else text)
    text = reply(*lines)
    return mutate(rng, text) if rng.random() < 0.1 else text


def test_mutated_replies_never_break_a_run(tmp_path):
    rng = random.Random(29)
    datasets = {name: load_builtin(name) for name in builtin_ids()}
    logs = {name: [] for name in datasets}
    for i in range(100):
        name = sorted(datasets)[i % len(datasets)]
        dataset = datasets[name]
        variables = list(dataset.variables)
        dialect = list(Dialect)[i // len(datasets) % 2]
        cfg = RunConfig(dataset=name, iterations=3, runs=1, seed=i,
                        prompt=PromptConfig(dialect=dialect),
                        fit=FitConfig(hops=1, max_evals=100, seed=i))
        # two replies per iteration, for a reply with no proposal and its retry
        entries = [mutated_reply(rng, len(variables)) for _ in range(6)]
        log = run(cfg, dataset=dataset, backend=ScriptedBackend(entries))
        defects = [o for rec in log.records for o in rec.outcomes if o.status == "internal_error"]
        assert not defects, defects
        for cand in log.store:
            again = canonicalize(parse(cand.equation, Dialect.INFIX, variables))
            assert again.root == cand.canonical.root, cand.equation
        path = tmp_path / f"run{i:03d}.jsonl"
        save_runlog(log, path)
        log_data = load_runlog_data(path)
        assert diff_replay(log_data, replay(log_data, dataset=dataset)) == [], path.name
        logs[name].append(str(path))
    for name, paths in logs.items():
        assert main(["pareto", *paths, "--out", str(tmp_path / name)]) == 0, name


GOOD_BODY = {
    "choices": [{"message": {"role": "assistant", "content": "canned text"}}],
    "usage": {"prompt_tokens": 11, "completion_tokens": 7},
}
# where a wrong value can go: each key path of GOOD_BODY, the root included
KEY_PATHS = [(), ("choices",), ("choices", 0), ("choices", 0, "message"),
             ("choices", 0, "message", "content"), ("usage",), ("usage", "prompt_tokens"),
             ("usage", "completion_tokens")]
ODD_VALUES = [None, True, 0, -5, 1.5, -0.0, 10**30, "12", "", [], {}, [[]], {"0": 1},
              math.inf, -math.inf, math.nan]
# the JSON text of one token count, which can be what json.dumps never writes
USAGES = ["1e400", "-1e400", "Infinity", "-Infinity", "NaN", "-5", "-0.0", "1e20", "2.5",
          "true", "null", '"7"', "[]"]
STATUSES = [0, 100, 101, 199, 200, 201, 204, 206, 299, 300, 301, 304, 307, 399, 400, 401, 404,
            408, 418, 429, 451, 499, 500, 502, 503, 504, 599, 600, 999]
RETRY_AFTERS = [None, "0", "-1", "nan", "inf", "-inf", "1e400", "abc", "",
                "Wed, 21 Oct 2015 07:28:00 GMT"]


def _with_value(path, value):
    body = copy.deepcopy(GOOD_BODY)
    if not path:
        return value
    node = body
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return body


def endpoint_answers(rng: random.Random, n: int):
    """``n`` seeded (status, body, Retry-After) answers: good bodies, truncated
    ones, wrong types at each key, odd content and usage, odd statuses and
    no answer at all."""
    good = json.dumps(GOOD_BODY)
    for _ in range(n):
        roll = rng.random()
        status, retry_after = 200, None
        if roll < 0.15:
            body = good[:rng.randint(0, len(good) - 1)]
        elif roll < 0.4:
            body = json.dumps(_with_value(rng.choice(KEY_PATHS), rng.choice(ODD_VALUES)))
        elif roll < 0.5:
            content = rng.choice(["x" * 2_000_000, "", None, "\0", "\ud800", "\u2212x1"])
            body = good.replace('"canned text"', json.dumps(content))
        elif roll < 0.65:
            key = rng.choice(["prompt_tokens", "completion_tokens"])
            body = good.replace(f'"{key}": {GOOD_BODY["usage"][key]}',
                                f'"{key}": {rng.choice(USAGES)}')
        elif roll < 0.75:
            body = rng.choice(["", "null", "[]", "0", '"text"', "[" * 100_000, "{" * 3,
                               "<html>busy</html>", good + good, b"\xff\xfe{}"])
        else:
            status = rng.choice(STATUSES)
            body = rng.choice([good, "", "boom"])
            retry_after = rng.choice(RETRY_AFTERS)
        yield status, body if isinstance(body, bytes) else body.encode(), retry_after


class _Endpoint(BaseHTTPRequestHandler):
    answer: tuple[int, bytes, str | None] = (200, b"", None)  # status 0: hang up

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        status, body, retry_after = self.answer
        if status == 0:
            return
        self.send_response(status)
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_endpoint_bodies_end_as_backend_errors(monkeypatch):
    monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
    slept = []
    monkeypatch.setattr("srloop.llm.time.sleep", slept.append)
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    config = BackendConfig(kind="http", endpoint=f"http://127.0.0.1:{server.server_port}/v1",
                           key_env_var="TEST_LLM_KEY", timeout=5.0, max_retries=1)
    backend = HttpBackend(config, backoff=0)
    request = ChatRequest(system="be terse", user="propose equations")
    outcomes = {}
    try:
        for answer in endpoint_answers(random.Random(41), 300):
            _Endpoint.answer = answer
            try:
                resp = backend.complete(request)
            except BackendError as exc:
                outcome = type(exc).__name__
            else:
                assert isinstance(resp.text, str), answer
                for count in (resp.prompt_tokens, resp.completion_tokens):
                    assert isinstance(count, int) and count >= 0, answer
                outcome = "ok"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    finally:
        backend.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    # every way out is taken, so the bodies reach each check
    assert set(outcomes) == {"ok", "MalformedResponseError", "ApiError", "TransportError"}, outcomes
    assert slept and all(0 <= s <= config.timeout for s in slept), slept
