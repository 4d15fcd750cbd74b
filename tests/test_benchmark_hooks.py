"""The benchmark's trace hooks name functions the library still has.

A hook whose target is gone does not fail the benchmark run; its layer
metrics silently go missing.  This guard runs with the library's suite.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402


def test_every_hook_target_resolves():
    missing = [(module, attr) for _, module, attr, _, _ in spans.HOOKS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
