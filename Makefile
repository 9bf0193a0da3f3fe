# Convenience targets for the dohperf reproduction.

.PHONY: build test bench doc repro repro-full examples verify clean \
        ci fmt-check clippy perf-smoke baseline store-roundtrip \
        trace-smoke golden-trace alloc-smoke protocol-matrix \
        protocol-baseline scale-smoke scale-baseline \
        pageload-smoke pageload-baseline pageload-bench \
        timeline-smoke timeline-baseline \
        store-pipeline-smoke store-bench store-bench-baseline bench-test

build:
	cargo build --workspace --release

test:
	cargo test --workspace

bench:
	cargo bench -p dohperf-bench

doc:
	cargo doc --workspace --no-deps

# Quick reproduction of every table and figure (25% scale, ~1 min).
repro:
	cargo run --release -p dohperf-bench --bin repro -- all

# The paper's full 22k-client scale (~5 min).
repro-full:
	cargo run --release -p dohperf-bench --bin repro -- --scale 1.0 all

# Full gate: release build, the whole test suite, the determinism check
# that 1-worker and multi-worker campaigns serialize identically, the
# store round-trip check, and the same lint + perf-smoke jobs CI runs.
verify: ci
	cargo test --release -p dohperf --test integration_parallel -- thread_count_is_invisible
	$(MAKE) store-roundtrip
	$(MAKE) store-pipeline-smoke
	$(MAKE) trace-smoke
	$(MAKE) protocol-matrix
	$(MAKE) pageload-smoke
	$(MAKE) timeline-smoke
	$(MAKE) alloc-smoke
	$(MAKE) scale-smoke
	$(MAKE) store-bench

# Mirror of .github/workflows/ci.yml, runnable locally and offline.
ci: fmt-check clippy
	cargo build --workspace --release --offline
	cargo test --workspace -q
	$(MAKE) bench-test
	$(MAKE) perf-smoke

# The benchmark package's own tests (benchmark/ is a separate cargo
# workspace, so `cargo test --workspace` never reaches them): the metric
# catalogue, METRICS.md and BENCHMARK.json must agree, every workload's
# output checks must pass at a small scale, and exact counters and digests
# must not depend on the worker-thread count.
bench-test:
	cargo test --offline -q --manifest-path benchmark/Cargo.toml

fmt-check:
	cargo fmt --all -- --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Scale-0.05 campaign streamed through the columnar store; fails (exit 3)
# if any deterministic metric (campaign or store counters) drifts from the
# checked-in baseline.
perf-smoke:
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --shard-size 64 \
	    --out-format store --store-dir target/ci/store \
	    headline \
	    --metrics target/ci/metrics.json --baseline ci/baseline-metrics.json
	rm -rf target/ci/store

# Scaling gate (DESIGN.md §14): time the scale-0.25 campaign serial,
# with the old per-country work units, and with sub-country sharding +
# work stealing, then gate the speedup ratios and queries_per_sec
# against ci/baseline-scale.json (exit 3 on drift). Wall clock varies
# across machines, so the band is wide and one-sided: only a regression
# below baseline*(1-tolerance) fails. The measured report lands in
# target/ci/scale.json; the committed trajectory is BENCH_scale.json.
scale-smoke:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin scale_check -- \
	    --seed 2021 --scale 0.25 \
	    --baseline ci/baseline-scale.json --tolerance 0.5 \
	    --out target/ci/scale.json

# Regenerate the scaling baseline after an intentional perf change.
scale-baseline:
	cargo run --release -p dohperf-bench --bin scale_check -- \
	    --seed 2021 --scale 0.25 --out ci/baseline-scale.json

# One perf-smoke per transport: each protocol's connection-lifecycle
# campaign (scale 0.05, streamed through the store so the FLAG_TRANSPORTS
# column group is exercised) is gated against its own checked-in baseline.
# Deterministic counters are exact functions of (seed, scale, protocol),
# so tolerance stays 0.
PROTOCOLS := do53 doh dot doq

protocol-matrix:
	@for p in $(PROTOCOLS); do \
	    echo "== protocol-matrix: $$p =="; \
	    cargo run --release -p dohperf-bench --bin repro -- \
	        --seed 2021 --scale 0.05 --protocols $$p \
	        --out-format store --store-dir target/ci/store-$$p transports \
	        --metrics target/ci/metrics-$$p.json \
	        --baseline ci/baseline-metrics-$$p.json > /dev/null || exit 1; \
	    rm -rf target/ci/store-$$p; \
	done
	@echo "protocol matrix OK: do53/doh/dot/doq metrics match their baselines"

# Page-load smoke (DESIGN.md §15): the two-visit pageload campaign at
# scale 0.05 streamed through the columnar store (exercising the
# FLAG_PAGELOAD column group), gated three ways — deterministic metrics
# (incl. cache.* and campaign.page_*) against their checked-in baseline
# at tolerance 0, the rendered PLT report re-derived byte-identically
# from the store, and the sampled flight-recorder trace byte-identical
# to its committed golden.
pageload-smoke:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --pages 2 \
	    --out-format store --store-dir target/ci/store-pageload pageload \
	    --metrics target/ci/metrics-pageload.json \
	    --baseline ci/baseline-metrics-pageload.json \
	    > target/ci/pageload-direct.txt
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --pages 2 \
	    --from-store target/ci/store-pageload pageload \
	    > target/ci/pageload-restored.txt
	cmp target/ci/pageload-direct.txt target/ci/pageload-restored.txt
	rm -rf target/ci/store-pageload
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.02 --threads 2 --pages 2 \
	    --trace-out target/ci/trace-pageload.json --trace-sample 128 pageload > /dev/null
	cargo run --release -p dohperf-bench --bin trace-check -- target/ci/trace-pageload.json
	cmp target/ci/trace-pageload.json ci/golden-trace-pageload.json
	@echo "pageload smoke OK: metrics, store round-trip and golden trace all match"

# Timeline smoke (DESIGN.md §16): a windowed campaign at scale 0.05
# streamed through the columnar store (exercising the FLAG_TIMESERIES
# column group), gated three ways — deterministic metrics (the window.*
# series) against their checked-in baseline at tolerance 0, the rendered
# timeline report re-derived byte-identically from the store, and the
# windowed store bytes byte-identical across a (threads × shard-size)
# matrix.
timeline-smoke:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --window-hours 1 \
	    --out-format store --store-dir target/ci/store-timeline timeline \
	    --metrics target/ci/metrics-timeline.json \
	    --baseline ci/baseline-metrics-timeline.json \
	    > target/ci/timeline-direct.txt
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --window-hours 1 \
	    --from-store target/ci/store-timeline timeline \
	    > target/ci/timeline-restored.txt
	cmp target/ci/timeline-direct.txt target/ci/timeline-restored.txt
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --window-hours 1 --threads 1 --shard-size 5 \
	    --out-format store --store-dir target/ci/store-timeline-t1 timeline \
	    > /dev/null
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --window-hours 1 --threads 8 --shard-size 5 \
	    --out-format store --store-dir target/ci/store-timeline-t8 timeline \
	    > /dev/null
	cmp target/ci/store-timeline/records.chunks target/ci/store-timeline-t1/records.chunks
	cmp target/ci/store-timeline/manifest.bin target/ci/store-timeline-t1/manifest.bin
	cmp target/ci/store-timeline/records.chunks target/ci/store-timeline-t8/records.chunks
	cmp target/ci/store-timeline/manifest.bin target/ci/store-timeline-t8/manifest.bin
	rm -rf target/ci/store-timeline target/ci/store-timeline-t1 target/ci/store-timeline-t8
	@echo "timeline smoke OK: metrics, store re-derive and thread/shard bytes all match"

# Regenerate the timeline metrics baseline after an intentional change
# to the windowing model.
timeline-baseline:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --window-hours 1 \
	    --out-format store --store-dir target/ci/store-timeline timeline \
	    --metrics ci/baseline-metrics-timeline.json > /dev/null
	rm -rf target/ci/store-timeline

# Regenerate the pageload metrics baseline after an intentional change
# to the page model.
pageload-baseline:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --pages 2 \
	    --out-format store --store-dir target/ci/store-pageload pageload \
	    --metrics ci/baseline-metrics-pageload.json > /dev/null
	rm -rf target/ci/store-pageload

# Record the page-load throughput trajectory (pages/sec + queries/sec at
# scale 0.05 and 0.25) into the committed BENCH_pageload.json.
pageload-bench:
	cargo run --release -p dohperf-bench --bin pageload_bench -- \
	    --seed 2021 --out BENCH_pageload.json

# Regenerate the per-protocol baselines after an intentional change to
# the lifecycle model.
protocol-baseline:
	@for p in $(PROTOCOLS); do \
	    cargo run --release -p dohperf-bench --bin repro -- \
	        --seed 2021 --scale 0.05 --protocols $$p \
	        --out-format store --store-dir target/ci/store-$$p transports \
	        --metrics ci/baseline-metrics-$$p.json > /dev/null || exit 1; \
	    rm -rf target/ci/store-$$p; \
	done

# Regenerate the perf-smoke baseline after an intentional behaviour change.
baseline:
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --out-format store --store-dir target/ci/store \
	    headline --metrics ci/baseline-metrics.json
	rm -rf target/ci/store

# Export a sampled flight-recorder trace (threads 2 exercises the shard
# merge), validate its Chrome-trace structure, and require byte-identity
# with the committed golden — any thread count must produce these bytes.
trace-smoke:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.02 --threads 2 \
	    --trace-out target/ci/trace.json --trace-sample 128 headline > /dev/null
	cargo run --release -p dohperf-bench --bin trace-check -- target/ci/trace.json
	cmp target/ci/trace.json ci/golden-trace.json
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.02 --threads 2 --protocols do53,doh,dot,doq \
	    --trace-out target/ci/trace-protocols.json --trace-sample 128 headline > /dev/null
	cargo run --release -p dohperf-bench --bin trace-check -- target/ci/trace-protocols.json
	cmp target/ci/trace-protocols.json ci/golden-trace-protocols.json
	@echo "trace smoke OK: deterministic bytes match both golden traces"

# Zero-allocation gate (DESIGN.md §12). Rebuilds with the counting
# global allocator, runs the perf-smoke campaign twice in one process —
# with the page-load workload folded into both runs (--pages 2) — and
# fails if the warm run makes any steady-state hot-path allocation.
# (`alloc.steady_state_allocs` in ci/baseline-metrics.json pins the same
# contract on the perf-smoke metrics diff.) The throughput + allocs/query
# report lands in target/ci/alloc.json; the committed before/after record
# is BENCH_alloc.json.
alloc-smoke:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --features alloc-count \
	    --bin alloc_check -- --pages 2 --out target/ci/alloc.json
	cargo test --release -p dohperf --features alloc-count --test integration_alloc

# Regenerate the golden traces after an intentional instrumentation change.
golden-trace:
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.02 --threads 2 \
	    --trace-out ci/golden-trace.json --trace-sample 128 headline > /dev/null
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.02 --threads 2 --protocols do53,doh,dot,doq \
	    --trace-out ci/golden-trace-protocols.json --trace-sample 128 headline > /dev/null
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.02 --threads 2 --pages 2 \
	    --trace-out ci/golden-trace-pageload.json --trace-sample 128 pageload > /dev/null

# Write a quick-scale campaign to a store, re-derive the headline from it
# with --from-store, and require the two outputs to be identical.
store-roundtrip:
	rm -rf target/ci/roundtrip
	mkdir -p target/ci/roundtrip
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --out-format store \
	    --store-dir target/ci/roundtrip/store headline \
	    > target/ci/roundtrip/direct.txt
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --from-store target/ci/roundtrip/store headline \
	    > target/ci/roundtrip/restored.txt
	cmp target/ci/roundtrip/direct.txt target/ci/roundtrip/restored.txt
	@echo "store round-trip OK: --from-store reproduced the headline byte-for-byte"

# Pipelined store I/O gate (DESIGN.md §17): the off-thread encoder and
# the parallel decoder must be invisible in every byte. Writes the same
# campaign store at 1 and 8 worker threads (both through the encoder
# pool), requires identical records.chunks/manifest.bin, then re-derives
# the headline from the store at --threads 1 and --threads 8 and
# requires identical report bytes.
store-pipeline-smoke:
	rm -rf target/ci/pipeline
	mkdir -p target/ci/pipeline
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --threads 1 --out-format store \
	    --store-dir target/ci/pipeline/store-t1 headline \
	    > target/ci/pipeline/direct.txt
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --threads 8 --out-format store \
	    --store-dir target/ci/pipeline/store-t8 headline > /dev/null
	cmp target/ci/pipeline/store-t1/records.chunks target/ci/pipeline/store-t8/records.chunks
	cmp target/ci/pipeline/store-t1/manifest.bin target/ci/pipeline/store-t8/manifest.bin
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --threads 1 \
	    --from-store target/ci/pipeline/store-t1 headline \
	    > target/ci/pipeline/restored-t1.txt
	cargo run --release -p dohperf-bench --bin repro -- \
	    --seed 2021 --scale 0.05 --threads 8 \
	    --from-store target/ci/pipeline/store-t1 headline \
	    > target/ci/pipeline/restored-t8.txt
	cmp target/ci/pipeline/direct.txt target/ci/pipeline/restored-t1.txt
	cmp target/ci/pipeline/restored-t1.txt target/ci/pipeline/restored-t8.txt
	rm -rf target/ci/pipeline
	@echo "store pipeline OK: encoder pool and parallel decode are byte-invisible"

# Store-throughput trajectory (DESIGN.md §17): times the scalar
# reference codec, the block-kernel writer, the pipelined writer, and
# the serial/parallel decoders over a scale-0.25 campaign corpus, and
# gates regression-only against ci/baseline-store.json (exit 3 on
# drift; the band is wide because wall clock varies across machines).
# The measured report lands in target/ci/store.json; the committed
# trajectory is BENCH_store.json.
store-bench:
	mkdir -p target/ci
	cargo run --release -p dohperf-bench --bin store_bench -- \
	    --seed 2021 --scale 0.25 \
	    --baseline ci/baseline-store.json --tolerance 0.5 \
	    --out target/ci/store.json

# Regenerate the store-throughput baseline after an intentional change.
store-bench-baseline:
	cargo run --release -p dohperf-bench --bin store_bench -- \
	    --seed 2021 --scale 0.25 --out ci/baseline-store.json

examples:
	cargo run --release --example quickstart
	cargo run --release --example provider_shootout
	cargo run --release --example methodology_tour -- ID
	cargo run --release --example live_do53

clean:
	cargo clean
