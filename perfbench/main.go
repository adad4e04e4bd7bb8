// Command perfbench is G-MAP's benchmark. It runs one named workload for
// a given time and prints, as its last line, one JSON object with the
// run's correctness, its attempted and failed operations and its
// metrics: the end-to-end metrics of BENCHMARK.json untraced, or its
// per-layer metrics with --trace 1. The "compare" subcommand judges two
// sets of saved runs against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/trace"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seedArg := fs.String("seed", "1", "clone seed the workload's inputs are generated from (1 is the default, 2 the held-out seed)")
	seconds := fs.Float64("seconds", 20, "time budget for the measured rounds")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/perfbench/spans/<workload>-seed<seed>.<format>)")
	traceFormat := fs.String("trace-format", "jsonl", "span file format: jsonl or chrome")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	seed, err := strconv.ParseUint(*seedArg, 10, 64)
	if err != nil {
		// A negative seed names the same 64 bits as its two's complement.
		signed, serr := strconv.ParseInt(*seedArg, 10, 64)
		if serr != nil {
			return fmt.Errorf("bad --seed: %w", err)
		}
		seed = uint64(signed)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *traced)
	}
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		return fmt.Errorf("--trace-format must be jsonl or chrome, not %q", *traceFormat)
	}

	b := newBench(def, seed, *traced == 1)
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", def.name, seed, *seconds, *traced)
	if def.configs != nil {
		err = b.runSweep(budget)
	} else {
		err = b.runCloneAll(budget)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "passes: %d set-up, %d rounds; operations: %d attempted, %d failed\n",
		len(b.setups), len(b.rounds), b.attempted, b.failed)
	for _, l := range b.checks.lines() {
		fmt.Fprintln(stdout, l)
	}
	counts := b.layerCounts()
	for _, m := range counts {
		fmt.Fprintf(stdout, "count %s %v %s\n", m.name, m.value, m.unit)
	}
	var report []metric
	if b.tracer == nil {
		report = b.endToEnd()
	} else {
		path := *traceOut
		if path == "" {
			ext := "jsonl"
			if *traceFormat == "chrome" {
				ext = "json"
			}
			path = filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.%s", def.name, seed, ext))
		}
		if err := writeSpans(path, *traceFormat, b.tracer.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.tracer.spans), path)
		times, self := b.layerTimes()
		for _, l := range sortedKeys(self) {
			fmt.Fprintf(stdout, "self time %-10s %.4f s\n", l, self[l].Seconds())
		}
		report = append(times, counts...)
	}
	correct := !b.checks.unexpected()
	out := make(map[string]map[string]any, len(report))
	for _, m := range report {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			correct = false
			m.value = 0
		}
		if b.tracer == nil {
			fmt.Fprintf(stdout, "metric %s %v %s\n", m.name, m.value, m.unit)
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.attempted, "failed": b.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func writeSpans(path, format string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if format == "chrome" {
		return writeChrome(f, spans)
	}
	return writeJSONL(f, spans)
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// setupPasses are the passes that set up: a sweep's set-up passes, or
// clone-all's rounds, which set up inside every operation.
func (b *bench) setupPasses() []pass {
	if b.def.configs == nil {
		return b.rounds
	}
	return b.setups
}

// endToEnd computes the nine end-to-end metrics from the untraced passes.
func (b *bench) endToEnd() []metric {
	var setups, runs []time.Duration
	var reqs uint64
	var simTime time.Duration
	for _, p := range b.setupPasses() {
		setups = append(setups, p.setup)
	}
	for _, p := range b.rounds {
		runs = append(runs, p.run)
		for _, s := range p.sims {
			reqs += s.m.Requests
			simTime += s.dur
		}
	}
	var l1o, l1c, l2o, l2c, rblo, rblc, lato, latc, ro, rc []float64
	for _, pr := range b.pairs {
		o, c := pr[0], pr[1]
		l1o, l1c = append(l1o, o.L1MissRate()), append(l1c, c.L1MissRate())
		l2o, l2c = append(l2o, o.L2MissRate()), append(l2c, c.L2MissRate())
		rblo, rblc = append(rblo, o.DRAM.RowBufferLocality()), append(rblc, c.DRAM.RowBufferLocality())
		lato, latc = append(lato, o.DRAM.AvgReadLatency()), append(latc, c.DRAM.AvgReadLatency())
		ro, rc = append(ro, b.def.rOn(o)), append(rc, b.def.rOn(c))
	}
	return []metric{
		{"setup_s", "s", medianSeconds(setups)},
		{"run_s", "s", medianSeconds(runs)},
		{"sim_mreq_per_s", "Mreq/s", float64(reqs) / simTime.Seconds() / 1e6},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"l1_gap_pp", "pp", ppGap(l1o, l1c)},
		{"l2_gap_pp", "pp", ppGap(l2o, l2c)},
		{"rbl_gap_pp", "pp", ppGap(rblo, rblc)},
		{"rdlat_gap_pct", "%", relGapPct(lato, latc)},
		{"clone_r", "r", pearson(ro, rc)},
	}
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// setupCounts are the per-layer work counts of the workload's set-up,
// summed over its benchmarks.
type setupCounts struct {
	accesses, requests, cloneRequests    uint64
	piProfiles                           int
	traceBytes, profileBytes, proxyBytes int64
	universal, kept                      int
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func (c *setupCounts) add(s *subject) error {
	for _, t := range s.w.Trace.Threads {
		for _, a := range t.Accesses {
			if a.Kind != trace.Sync {
				c.accesses++
			}
		}
	}
	var err error
	size := func(write func(io.Writer) error) int64 {
		var cw countingWriter
		if werr := write(&cw); werr != nil && err == nil {
			err = fmt.Errorf("size %s artifacts: %w", s.name, werr)
		}
		return cw.n
	}
	c.requests += s.facts[0].requests
	c.piProfiles += len(s.w.Profile.Profiles)
	c.traceBytes += size(func(out io.Writer) error { return gmap.WriteTrace(out, s.w.Trace) })
	c.profileBytes += size(func(out io.Writer) error { return gmap.WriteProfile(out, s.w.Profile) })
	u := universalPCs(s.w.Warps)
	for j := 0; j < clonesPer; j++ {
		p := s.clone(j)
		c.cloneRequests += s.facts[1+j].requests
		c.proxyBytes += size(func(out io.Writer) error { return gmap.WriteProxy(out, p) })
		c.universal += len(u)
		c.kept += len(u) - len(missingPCs(u, p.Warps))
	}
	return err
}

// layerCounts are the deterministic per-layer counts: set-up artifacts,
// and the simulated work of one round.
func (b *bench) layerCounts() []metric {
	c := b.counts
	var r0 pass
	if len(b.rounds) > 0 {
		r0 = b.rounds[0]
	}
	var reqs, cycles, stalls, l1a, l1h, l1wb, l2a, l2h, dreq, dwr, rowHits, rowAll uint64
	var queue float64
	for _, s := range r0.sims {
		m := s.m
		reqs += m.Requests
		cycles += m.Cycles
		stalls += m.MSHRStalls
		l1a, l1h, l1wb = l1a+m.L1.Accesses, l1h+m.L1.Hits, l1wb+m.L1.Writebacks
		l2a, l2h = l2a+m.L2.Accesses, l2h+m.L2.Hits
		dreq, dwr = dreq+m.DRAM.Requests, dwr+m.DRAM.Writes
		rowHits += m.DRAM.RowHits
		rowAll += m.DRAM.RowHits + m.DRAM.RowMisses + m.DRAM.RowConflicts
		queue += m.DRAM.AvgQueueLen()
	}
	n := float64(max(len(r0.sims), 1))
	return []metric{
		{"kernelsim.accesses", "count", float64(c.accesses)},
		{"gpu.requests", "count", float64(c.requests)},
		{"gpu.accesses_per_request", "x", ratio(c.accesses, c.requests)},
		{"profiler.pi_profiles", "count", float64(c.piProfiles)},
		{"profiler.profile_bytes", "bytes", float64(c.profileBytes)},
		{"synth.clone_requests", "count", float64(c.cloneRequests)},
		{"synth.reduction_x", "x", ratio(c.requests*clonesPer, c.cloneRequests)},
		{"synth.universal_pc_kept", "share", ratio(uint64(c.kept), uint64(c.universal))},
		{"trace.orig_bytes", "bytes", float64(c.traceBytes)},
		{"trace.proxy_bytes", "bytes", float64(c.proxyBytes)},
		{"runner.jobs", "count", float64(r0.jobs)},
		{"memsim.requests", "count", float64(reqs)},
		{"memsim.cycles", "count", float64(cycles)},
		{"memsim.mshr_stalls", "count", float64(stalls)},
		{"cache.l1_accesses", "count", float64(l1a)},
		{"cache.l1_hit_rate", "share", ratio(l1h, l1a)},
		{"cache.l1_writebacks", "count", float64(l1wb)},
		{"cache.l2_accesses", "count", float64(l2a)},
		{"cache.l2_hit_rate", "share", ratio(l2h, l2a)},
		{"dram.requests", "count", float64(dreq)},
		{"dram.writes", "count", float64(dwr)},
		{"dram.row_hit_rate", "share", ratio(rowHits, rowAll)},
		{"dram.avg_queue_len", "count", queue / n},
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerTimes are a traced run's per-layer host times: each layer's self
// time per pass (median over the passes that reach it, also returned by
// layer), the memsim split by side and scheduler, and the benchmark's
// own tracing overhead.
func (b *bench) layerTimes() ([]metric, map[string]time.Duration) {
	byLayer := medianSelf(b.tracer.spans, span.layer)
	byName := medianSelf(b.tracer.spans, func(s span) string { return s.Name })
	var setupU, setupT, runU, runT []time.Duration
	var sim, orig, clone, lrr, gto []time.Duration
	for _, p := range b.setupPasses() {
		if p.traced {
			setupT = append(setupT, p.setup)
		} else {
			setupU = append(setupU, p.setup)
		}
	}
	for _, p := range b.rounds {
		if !p.traced {
			runU = append(runU, p.run)
			continue
		}
		runT = append(runT, p.run)
		var all, o, c, l, g time.Duration
		for _, s := range p.sims {
			all += s.dur
			if s.clone < 0 {
				o += s.dur
			} else {
				c += s.dur
			}
			switch s.sched {
			case gmap.LRR.String():
				l += s.dur
			case gmap.GTO.String():
				g += s.dur
			}
		}
		sim, orig, clone = append(sim, all), append(orig, o), append(clone, c)
		lrr, gto = append(lrr, l), append(gto, g)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	stages := byLayer["kernelsim"] + byLayer["profiler"] + byLayer["synth"] + byLayer["gpu"]
	simS := medianSeconds(sim)
	var reqs uint64
	if len(b.rounds) > 0 {
		for _, s := range b.rounds[0].sims {
			reqs += s.m.Requests
		}
	}
	out := []metric{
		{"kernelsim.emulate_s", "s", sec(byLayer["kernelsim"])},
		{"gpu.coalesce_s", "s", sec(byLayer["gpu"])},
		{"profiler.profile_s", "s", sec(byLayer["profiler"])},
		{"synth.generate_s", "s", sec(byLayer["synth"])},
		{"trace.encode_s", "s", sec(byName["trace.encode"])},
		{"trace.decode_s", "s", sec(byName["trace.decode"])},
		{"runner.overhead_s", "s", sec(byLayer["runner"])},
		{"memsim.sim_s", "s", simS},
		{"memsim.orig_sim_s", "s", medianSeconds(orig)},
		{"memsim.clone_sim_s", "s", medianSeconds(clone)},
		{"memsim.clone_speedup_x", "x", clonesPer * medianSeconds(orig) / medianSeconds(clone)},
		{"memsim.lrr_sim_s", "s", medianSeconds(lrr)},
		{"memsim.gto_sim_s", "s", medianSeconds(gto)},
		{"memsim.ns_per_request", "ns", simS * 1e9 / float64(max(reqs, 1))},
		{"perfbench.setup_untraced_s", "s", medianSeconds(setupU)},
		{"perfbench.setup_traced_s", "s", medianSeconds(setupT)},
		{"perfbench.setup_stages_s", "s", sec(stages)},
		{"perfbench.run_untraced_s", "s", medianSeconds(runU)},
		{"perfbench.run_traced_s", "s", medianSeconds(runT)},
		{"perfbench.tracing_overhead_pct", "%", 100 * (medianSeconds(runT)/medianSeconds(runU) - 1)},
	}
	return out, byLayer
}
