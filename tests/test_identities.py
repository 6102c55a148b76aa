"""Pinned identities: the outputs a refactor must leave byte-identical.

Each identity is either one CLI command's output, run in process through
:func:`repro.cli.main` with only timings, pids and ports masked, or the
sha256 of the checkpoint a short stream writes (its rates are written at
full precision, so one ulp moves it).  ``identities.json`` beside this
file holds what the code printed when it was recorded, together with the
Python, numpy and numpy SIMD build that printed it.

A change that moves an identity on purpose rewrites the file in the same
change, and says why::

    PYTHONPATH=src python tests/test_identities.py

Another numpy build may round a float differently in the last place; a
failure names the identity that moved and shows the recorded build next
to the running one, so such a difference reads as a finding about the
build, not as a reason to loosen the pin.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import pathlib
import re
import sys
import tempfile

import numpy as np
import pytest

from repro.cli import main

EXPECTED_PATH = pathlib.Path(__file__).with_name("identities.json")

_FLOWS = ["--flows", "40"]
_FIGURES = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16)
_FLEET = [*_FLOWS, "fleet", "eu_isp", "--selftest", "200", "--shards", "1"]
_STREAM = [*_FLOWS, "stream", "eu_isp", "--duration", "1800"]

#: Identity name -> the CLI arguments whose output it pins.
COMMANDS = {
    "table1": [*_FLOWS, "table1"],
    **{f"figure {n}": [*_FLOWS, "figure", str(n)] for n in _FIGURES},
    "design": [*_FLOWS, "design", "eu_isp"],
    "design hybrid": [*_FLOWS, "design", "eu_isp", "--mechanism", "hybrid"],
    "stream": _STREAM,
    "stream hybrid": [*_STREAM, "--mechanism", "hybrid"],
    "offerings": [*_FLOWS, "offerings", "eu_isp"],
    "datasets": ["datasets"],
    "ecosystem selftest": [
        "ecosystem", "--ases", "50", "--seed", "0", "--selftest",
    ],
    "mechanisms selftest": ["--flows", "120", "mechanisms", "--selftest"],
    "fleet selftest": _FLEET,
    "fleet selftest hybrid": [*_FLEET, "--mechanism", "hybrid"],
}

#: Identity name -> the stream arguments whose checkpoint file it pins.
CHECKPOINTS = {"stream checkpoint": [*_STREAM, "--max-windows", "2"]}
NAMES = sorted({*COMMANDS, *CHECKPOINTS})

#: What varies from run to run: timings, pids and ports, nothing else.
_MASKS = (
    # the stream's ingest rate: "records: 2757 (52,694/s)"
    (re.compile(r"\([\d,]+/s\)"), "(<rate>/s)"),
    # a fleet load report: "100 requests in 0.01 s (15,843 quotes/s)"
    (
        re.compile(r"requests in [\d.]+ s \([\d,]+ quotes/s\)"),
        "requests in <s> s (<rate> quotes/s)",
    ),
    (re.compile(r"(p50|p95|p99) [\d.]+ ms"), r"\1 <ms> ms"),
    # "fleet: 1 shards (pids [12500]), front door on port 40671"
    (re.compile(r"\(pids \[[\d, ]*\]\)"), "(pids <pids>)"),
    (re.compile(r"on port \d+"), "on port <port>"),
)
_REPORT_PREFIX = "fleet-report: "
_REPORT_MASKED = ("pids", "port", "p99_ms", "quotes_per_second")


def build() -> dict:
    """The interpreter and numpy build an identity was computed on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    simd = sorted(name for name, found in __cpu_features__.items() if found)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_simd": " ".join(simd),
    }


def _mask(line: str) -> str:
    if line.startswith(_REPORT_PREFIX):
        report = json.loads(line[len(_REPORT_PREFIX):])
        report.update((key, "<masked>") for key in _REPORT_MASKED)
        return _REPORT_PREFIX + json.dumps(report, sort_keys=True)
    for pattern, replacement in _MASKS:
        line = pattern.sub(replacement, line)
    return line


def _run(argv: "list[str]") -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--no-cache"])
    assert code == 0, f"repro {' '.join(argv)} exited {code}"
    return out.getvalue()


def observe(name: str) -> "list[str] | str":
    """The identity ``name`` as the running code computes it."""
    if name in CHECKPOINTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "stream.ckpt"
            _run([*CHECKPOINTS[name], "--checkpoint", str(path)])
            return hashlib.sha256(path.read_bytes()).hexdigest()
    return [_mask(line) for line in _run(COMMANDS[name]).splitlines()]


def _load() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_identity_holds(name):
    expected = _load()
    recorded = expected["identities"].get(name)
    assert recorded is not None, f"identity {name!r} is not recorded"
    observed = observe(name)
    if observed == recorded:
        return
    if isinstance(recorded, str):
        diff = [f"- {recorded}", f"+ {observed}"]
    else:
        diff = list(difflib.unified_diff(
            recorded, observed, "recorded", "observed", lineterm=""
        ))
    pytest.fail(
        f"identity {name!r} moved\n"
        f"recorded on {json.dumps(expected['build'], sort_keys=True)}\n"
        f"running on  {json.dumps(build(), sort_keys=True)}\n"
        + "\n".join(diff),
        pytrace=False,
    )


def test_every_recorded_identity_is_observed():
    stale = set(_load()["identities"]) - set(NAMES)
    assert not stale, f"recorded identities nothing observes: {sorted(stale)}"


if __name__ == "__main__":
    identities = {name: observe(name) for name in NAMES}
    EXPECTED_PATH.write_text(
        json.dumps({"build": build(), "identities": identities}, indent=1)
        + "\n"
    )
    print(f"wrote {len(identities)} identities to {EXPECTED_PATH}")
