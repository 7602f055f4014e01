"""Operations attempted and failed, and the output checks made on them."""

import traceback
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Op:
    name: str
    ok: bool = True
    result: object = None


class Ledger:
    """Operations attempted and failed, output checks, and failure diagnostics."""

    def __init__(self, last_span=lambda exc=None: None):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checks = []
        self.last_span = last_span

    @property
    def correct(self):
        return all(c["passed"] for c in self.checks)

    @contextmanager
    def op(self, name):
        """Count one operation; an exception in it is recorded, not raised."""
        op = Op(name)
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            self._fail(op, exc, {
                "type": type(exc).__name__,
                "message": str(exc)[:300],
                "traceback": traceback.format_exc().splitlines()[-8:],
            })

    def check(self, op, name, passed, detail):
        """Record an output check; a failed one fails its operation."""
        passed = bool(passed)
        self.checks.append({"op": op.name, "check": name, "passed": passed, "detail": detail})
        if not passed:
            self._fail(op, None, {"type": "CheckFailed", "check": name, "detail": detail})

    def _fail(self, op, exc, info):
        if op.ok:
            op.ok = False
            self.failed += 1
        self.failures.append(dict({"op": op.name, "last_span": self.last_span(exc)}, **info))
