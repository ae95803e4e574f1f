"""Line-oriented verification reports.

One record per check: ``CHECK <name> <fixture> PASS|FAIL <witness>``.
A FAIL record always carries a replayable witness (the serialized data
that exhibits the failure).  Reports render deterministically.
"""

from .errors import MatlisLabError

PASS = "PASS"
FAIL = "FAIL"


class CheckRecord:
    """One check; a FAIL without a witness is refused."""

    def __init__(self, name, fixture, status, witness="-"):
        self.name = name
        self.fixture = fixture
        self.status = status
        self.witness = witness if witness else "-"
        if status == FAIL and self.witness.strip() in ("", "-"):
            raise MatlisLabError("FAIL record %s on %s has no witness" % (name, fixture))

    def render(self):
        return "CHECK %s %s %s %s" % (self.name, self.fixture, self.status, self.witness)


def check(name, fixture, ok, witness="-"):
    """A PASS record renders no witness, so a callable witness is called
    only when the check fails."""
    if ok:
        return CheckRecord(name, fixture, PASS)
    return CheckRecord(name, fixture, FAIL, witness() if callable(witness) else witness)


class Report:
    def __init__(self, suite, fixture, records):
        self.suite = suite
        self.fixture = fixture
        self.records = list(records)

    @property
    def n_pass(self):
        return sum(1 for r in self.records if r.status == PASS)

    @property
    def n_fail(self):
        return sum(1 for r in self.records if r.status == FAIL)

    def has_fail(self):
        return self.n_fail > 0

    def render(self):
        lines = [r.render() for r in self.records]
        lines.append(
            "SUITE %s %s total=%d pass=%d fail=%d"
            % (self.suite, self.fixture, len(self.records), self.n_pass, self.n_fail)
        )
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "suite": self.suite,
            "fixture": self.fixture,
            "records": [
                {
                    "name": r.name,
                    "fixture": r.fixture,
                    "status": r.status,
                    "witness": r.witness,
                }
                for r in self.records
            ],
            "total": len(self.records),
            "pass": self.n_pass,
            "fail": self.n_fail,
        }
