# Convenience targets; everything is plain dune underneath.

.PHONY: all build check test bench bench-quick micro examples lint-models lint-json replay-corpus check-smt check-obs check-taint check-topo clean

MODELS = middleblock tor wan cerberus figure2

all: build

build:
	dune build @all

# CI entry point: everything (library, CLI, bench, examples, tests) compiles
# with the dev profile's warnings-as-errors, the whole suite passes (its
# determinism matrix in test/test_parallel.ml holds every campaign corpus
# byte-identical across --jobs and against every reference path), and
# every shipped model is lint-clean at severity error. The last step runs
# the quick bench artifacts for their built-in gates: telemetry overhead
# within budget, incremental and scratch SMT solving yielding identical
# packets, taint reclassifying goals on a clean switch, 100% fabric
# localization, guided greybox out-covering blind without losing a fault,
# and the compiled evaluator >= 10x at 100k entries. Quick mode never
# rewrites the committed BENCH_*.json artifacts.
check:
	dune build @all
	dune runtest
	$(MAKE) lint-models
	$(MAKE) lint-json
	$(MAKE) replay-corpus
	$(MAKE) check-smt
	$(MAKE) check-obs
	$(MAKE) check-taint
	$(MAKE) check-topo
	dune exec bench/main.exe -- quick obs_overhead smt_incremental taint fabric greybox scale

# Regression-corpus gate: every archived incident in the golden corpus must
# still reproduce on a stack seeded with the fault it was captured under
# (the corpus is live, not rotted), and none may reproduce on a clean stack
# (no false regressions). Both legs exit non-zero on violation.
replay-corpus:
	dune exec bin/switchv_cli.exe -- replay -m middleblock --fault PINS-019 \
	  --corpus test/fixtures/corpus.jsonl --expect-reproduce
	dune exec bin/switchv_cli.exe -- replay -m middleblock \
	  --corpus test/fixtures/corpus.jsonl

# Incremental-SMT soak: `dune runtest` runs the property-based
# differential suite at its fixed seed; this re-runs its randomized soak
# for 2 seconds at a fresh seed (printed on failure, so a soak hit is
# reproducible).
check-smt:
	SWITCHV_QGEN_SEED=$$$$ SWITCHV_QGEN_SOAK_MS=2000 \
	  dune exec test/test_smt_diff.exe -- -e soak

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

# Static-analysis gate: every built-in role model and every example model
# must carry zero error-severity findings (warnings/info are advisory and
# printed for the record). `switchv lint` exits non-zero on errors.
lint-models:
	for m in $(MODELS); do \
	  dune exec bin/switchv_cli.exe -- lint -m $$m --severity error || exit 1; \
	done
	for f in examples/models/*.p4; do \
	  dune exec bin/switchv_cli.exe -- lint -f $$f --severity error || exit 1; \
	done

# Machine-readable lint gate: --json output must be well-formed JSON with
# the stable field set, deterministic across runs (byte-identical), and
# must carry the taint diagnostics (P4A009/P4A010) on the WCMP role model.
lint-json:
	dune build @all
	rm -f /tmp/swv_lint_a.json /tmp/swv_lint_b.json
	$(SWITCHV) lint -m middleblock --json > /tmp/swv_lint_a.json
	$(SWITCHV) lint -m middleblock --json > /tmp/swv_lint_b.json
	cmp /tmp/swv_lint_a.json /tmp/swv_lint_b.json
	python3 -m json.tool /tmp/swv_lint_a.json >/dev/null
	grep -q '"code":"P4A009"' /tmp/swv_lint_a.json
	grep -q '"code":"P4A010"' /tmp/swv_lint_a.json
	grep -q '"severity"' /tmp/swv_lint_a.json
	grep -q '"loc"' /tmp/swv_lint_a.json
	grep -q '"message"' /tmp/swv_lint_a.json
	rm -f /tmp/swv_lint_a.json /tmp/swv_lint_b.json

# Taint-oracle gate, two legs. (1) Soundness: a clean WCMP model under
# seeded hashing must validate with zero incidents — the set-valued oracle
# admits every legitimate member choice, no false positives, no
# hash-round enumeration on the fast path. (2) Sensitivity: a fault that
# perturbs the WCMP member set (PINS-051) must still be detected —
# escalation keeps the oracle exact.
check-taint:
	dune build @all
	$(SWITCHV) validate -m middleblock --batches 4 >/dev/null
	! $(SWITCHV) validate -m middleblock --batches 4 --fault PINS-051 >/dev/null

# Fabric gate, two legs. (1) Soundness: an unseeded 4-switch fabric
# campaign must be incident-free on every topology shape — the stack
# fabric and the model fabric agree hop-for-hop and end-to-end on a clean
# switch. (2) Localization: a TTL-trap fault seeded on the middle switch
# of a 3-switch line must be reported, and every hop-attributed
# fingerprint must name sw1 — never an innocent neighbour that merely
# forwarded the perturbed packet. Incident-bearing runs exit non-zero by
# contract, so that leg is inverted with `!`.
check-topo:
	dune build @all
	for t in line star mesh leaf_spine; do \
	  $(SWITCHV) fabric -m middleblock --topo $$t --switches 4 >/dev/null || exit 1; \
	done
	rm -f /tmp/swv_topo_rep.txt
	! $(SWITCHV) fabric -m middleblock --topo line --switches 3 \
	  --fault TOPO-001 --fault-switch 1 --shards 4 > /tmp/swv_topo_rep.txt
	grep -q 'h=sw1' /tmp/swv_topo_rep.txt
	! grep -q 'h=sw0' /tmp/swv_topo_rep.txt
	! grep -q 'h=sw2' /tmp/swv_topo_rep.txt
	rm -f /tmp/swv_topo_rep.txt

test:
	dune runtest

test-archive:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

micro:
	dune exec bench/main.exe -- micro

examples:
	dune exec examples/quickstart.exe
	dune exec examples/fuzz_campaign.exe
	dune exec examples/dataplane_diff.exe
	dune exec examples/model_from_source.exe
	dune exec examples/nightly_validation.exe

clean:
	dune clean
