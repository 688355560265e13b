# Convenience targets; everything is plain dune underneath.

.PHONY: all build check test bench bench-quick examples check-smt check-fuzz check-match check-obs clean

all: build

build:
	dune build @all

# CI entry point: everything (library, CLI, bench, examples, tests) compiles
# with the dev profile's warnings-as-errors, and the whole suite passes:
# the determinism matrix in test/test_parallel.ml holds every campaign
# corpus byte-identical across --jobs and against every reference path,
# and test/dune pins the CLI's exit contract (golden-corpus replay, the
# clean and seeded taint campaigns, clean fabrics on every shape, a
# lint-clean example model and the README's textual model validating
# clean). check-smt, check-fuzz and check-match rerun soaks at a fresh
# seed, and
# check-obs needs live processes. The last step runs the quick bench
# artifacts for their built-in gates: telemetry overhead within budget,
# incremental and scratch SMT solving yielding identical packets, taint
# reclassifying goals on a clean switch, 100% fabric localization, guided
# greybox out-covering blind without losing a fault, and the compiled
# evaluator >= 10x at 100k entries. Quick mode never rewrites the
# committed BENCH_*.json artifacts.
check:
	dune build @all
	dune runtest
	$(MAKE) check-smt
	$(MAKE) check-fuzz
	$(MAKE) check-match
	$(MAKE) check-obs
	dune exec bench/main.exe -- quick obs_overhead smt_incremental taint fabric greybox scale

# Incremental-SMT and mutated-model soaks: `dune runtest` runs the
# property-based SMT differential suite and the mutated-model probe at
# their fixed seeds; this re-runs each randomized soak for 2 seconds at a
# fresh seed (printed on failure, so a soak hit is reproducible).
check-smt:
	SWITCHV_QGEN_SEED=$$$$ SWITCHV_QGEN_SOAK_MS=2000 \
	  dune exec test/test_smt_diff.exe -- -e soak
	SWITCHV_QGEN_SEED=$$$$ SWITCHV_QGEN_SOAK_MS=2000 \
	  dune exec test/test_mutants.exe -- -e soak

# Fuzzer-view soak: `dune runtest` checks the views the fuzzer maintains
# across batches against a rebuild from its mirror at three fixed seeds;
# this reruns that case at a fresh seed (printed on failure).
check-fuzz:
	SWITCHV_FUZZ_SEED=$$$$ dune exec test/test_fuzzer.exe -- test views

# Packet-path soak: `dune runtest` runs test_match's index-vs-linear-scan
# differential and its compiled-vs-interpreted soak at fixed base seeds;
# this reruns both groups at a fresh base seed (printed on failure).
check-match:
	SWITCHV_MATCH_SEED=$$$$ dune exec test/test_match.exe -- test index
	SWITCHV_MATCH_SEED=$$$$ dune exec test/test_match.exe -- test compiled

# Observability gate, three legs. (1) Live exposition: a sharded campaign
# serves /metrics while running; poll (with switchv top, the
# dependency-free curl) until the live coverage gauge goes nonzero, lint
# the Prometheus exposition format, fetch /snapshot.json and /healthz,
# then interrupt the campaign with SIGINT and verify the --trace file was
# still published atomically (exists, no torn final line). The campaign
# fuzzes a million batches, minutes of work, so it outlasts every fetch
# and only the SIGINT ends it; the leg fails if the process is already
# gone. A failing fetch also sends SIGINT, so the pool reaps its workers.
# (2) Coverage determinism: --coverage-out maps at --jobs 1 and --jobs 4
# must be byte-identical. (3) Trace stitching: a --jobs trace converts to
# Chrome format with one root and zero orphan spans (trace-export exits
# non-zero otherwise). The telemetry overhead budget is the obs_overhead
# bench gate in `make check`.
OBS_PORT = 19473
SWITCHV = ./_build/default/bin/switchv_cli.exe
check-obs:
	dune build @all
	rm -f /tmp/swv_obs_cov1.txt /tmp/swv_obs_cov4.txt /tmp/swv_obs_trace.jsonl \
	  /tmp/swv_obs_live.jsonl /tmp/swv_obs_chrome.json
	$(SWITCHV) validate -m middleblock --scale 0.2 \
	  --batches 1000000 --shards 4 --jobs 4 --metrics-port $(OBS_PORT) \
	  --trace /tmp/swv_obs_live.jsonl >/dev/null 2>&1 & \
	pid=$$!; \
	up=0; \
	for i in $$(seq 1 300); do \
	  cov=$$($(SWITCHV) top --port $(OBS_PORT) --fetch /metrics 2>/dev/null \
	    | awk '$$1 == "switchv_edges_covered" && $$2 + 0 > 0 { print $$2 }'); \
	  if [ -n "$$cov" ]; then up=1; break; fi; \
	  sleep 0.2; \
	done; \
	if [ $$up -ne 1 ]; then echo "check-obs: live coverage gauge never went nonzero"; kill -INT $$pid 2>/dev/null; exit 1; fi; \
	echo "check-obs: live switchv_edges_covered=$$cov"; \
	$(SWITCHV) top --port $(OBS_PORT) --lint || { kill -INT $$pid 2>/dev/null; exit 1; }; \
	$(SWITCHV) top --port $(OBS_PORT) --once || { kill -INT $$pid 2>/dev/null; exit 1; }; \
	$(SWITCHV) top --port $(OBS_PORT) --fetch /snapshot.json >/dev/null || { kill -INT $$pid 2>/dev/null; exit 1; }; \
	$(SWITCHV) top --port $(OBS_PORT) --fetch /healthz | grep -q ok || { kill -INT $$pid 2>/dev/null; exit 1; }; \
	kill -INT $$pid || { echo "check-obs: the campaign ended before its SIGINT"; exit 1; }; \
	wait $$pid; true
	test -s /tmp/swv_obs_live.jsonl
	test -z "$$(tail -c 1 /tmp/swv_obs_live.jsonl)"
	! $(SWITCHV) validate -m middleblock --fault PINS-019 --batches 4 \
	  --shards 4 --jobs 1 --coverage-out /tmp/swv_obs_cov1.txt >/dev/null
	! $(SWITCHV) validate -m middleblock --fault PINS-019 --batches 4 \
	  --shards 4 --jobs 4 --coverage-out /tmp/swv_obs_cov4.txt \
	  --trace /tmp/swv_obs_trace.jsonl >/dev/null
	cmp /tmp/swv_obs_cov1.txt /tmp/swv_obs_cov4.txt
	$(SWITCHV) trace-export --chrome -o /tmp/swv_obs_chrome.json \
	  /tmp/swv_obs_trace.jsonl
	rm -f /tmp/swv_obs_cov1.txt /tmp/swv_obs_cov4.txt /tmp/swv_obs_trace.jsonl \
	  /tmp/swv_obs_live.jsonl /tmp/swv_obs_chrome.json

test:
	dune runtest

test-archive:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fuzz_campaign.exe
	dune exec examples/dataplane_diff.exe
	dune exec examples/model_from_source.exe
	dune exec examples/nightly_validation.exe

clean:
	dune clean
