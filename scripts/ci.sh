#!/usr/bin/env bash
# CI entry point: tier-1 suite (with the coverage gate), benchmark smoke,
# docs reference check, trace-replay smoke, HTTP serving smoke,
# update smoke, size probe.
#
# scripts/tier1.py degrades gracefully when pytest-cov is absent so a bare
# checkout can still run the suite; CI must NOT take that degraded path.
# This script first makes sure the dev tooling (dev-requirements.txt,
# which pins pytest-cov) is installed, then runs the seven checks that
# gate a PR:
#
#   1. scripts/tier1.py            - full test suite + 80% coverage floor
#                                    over repro.service and repro.core
#   2. scripts/smoke_benchmarks.py - every benchmark imported and run tiny
#   3. scripts/check_docs.py       - every doc path/symbol/CLI-flag reference
#                                    resolves
#   4. scripts/replay_smoke.py     - tiny-trace `repro replay` end to end:
#                                    deterministic exact + approximate
#                                    scenario replays through the CLI
#   5. scripts/http_smoke.py       - real serve-http child process: 2s of
#                                    concurrent load, SIGTERM, graceful
#                                    shutdown, no leaked /dev/shm segments
#                                    (non-zero exit on a leak)
#   6. scripts/update_smoke.py     - tiny graph through a storm of edge
#                                    batches: system and diagonal bitwise
#                                    equal to a from-scratch build after
#                                    every batch; affected set == forward
#                                    ball; with_edges graph == constructor's;
#                                    reported phases cover update_seconds
#                                    (and are printed); then one CLI
#                                    snapshot lineage (index, update,
#                                    update restarted at another K,
#                                    update): two files per version
#                                    (index, system), newest
#                                    diagonal == a fresh build
#   7. scripts/size_probe.py       - build, cold top-k, update and peak RSS
#                                    at a tiny size, so the probe stays
#                                    runnable (printed, not gated)
#
# Usage:
#   bash scripts/ci.sh            # all seven stages
#   CI_SKIP_INSTALL=1 bash scripts/ci.sh   # offline: use whatever is installed
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"
PYTHON="${PYTHON:-python3}"

if [[ "${CI_SKIP_INSTALL:-0}" != "1" ]]; then
    if ! "${PYTHON}" -c "import pytest_cov" >/dev/null 2>&1; then
        echo "ci: installing dev requirements (pytest-cov missing)"
        if ! "${PYTHON}" -m pip install -r dev-requirements.txt; then
            echo "ci: WARNING - could not install dev-requirements.txt" \
                 "(offline?); continuing with the degraded coverage-less" \
                 "tier-1 run" >&2
        fi
    fi
fi

if ! "${PYTHON}" -c "import pytest_cov" >/dev/null 2>&1; then
    echo "ci: note - pytest-cov still unavailable; tier1 runs without the" \
         "coverage gate" >&2
fi

echo "ci: [1/7] tier-1 suite (+ coverage gate when available)"
"${PYTHON}" scripts/tier1.py

echo "ci: [2/7] benchmark smoke"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" "${PYTHON}" scripts/smoke_benchmarks.py

echo "ci: [3/7] docs reference check"
"${PYTHON}" scripts/check_docs.py

echo "ci: [4/7] trace-replay smoke (deterministic exact + approximate CLI replay)"
"${PYTHON}" scripts/replay_smoke.py

echo "ci: [5/7] HTTP serving smoke (graceful shutdown + shm leak check)"
"${PYTHON}" scripts/http_smoke.py

echo "ci: [6/7] update smoke (storm vs from-scratch builds, bitwise compare)"
"${PYTHON}" scripts/update_smoke.py

echo "ci: [7/7] size probe (build, cold top-k, update, peak RSS at a tiny size)"
"${PYTHON}" scripts/size_probe.py --nodes 2000

echo "ci: all stages passed"
