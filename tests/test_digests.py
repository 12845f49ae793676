"""The parse digest of ``tools/parse_digest.py``, pinned.

Every tree, constant initial value, exception class and message the parser
gives over the digest's fixed corpus must stay as it is. A parser change made
on purpose updates the pin in the same diff. The fit digest is not pinned
here: it takes far longer and depends on NumPy's float kernels.
"""

import hashlib
import importlib.util
from pathlib import Path

PARSE_DIGEST = "84fe59dd768960b5d00e076f713beca33b68b5bf2ebe5e3c037365c525ab0639"
PARSES = 36112


def test_parse_digest_is_pinned():
    path = Path(__file__).resolve().parent.parent / "tools" / "parse_digest.py"
    spec = importlib.util.spec_from_file_location("parse_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    digest = hashlib.sha256()
    count = 0
    for line in tool.corpus_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    assert (digest.hexdigest(), count) == (PARSE_DIGEST, PARSES)
