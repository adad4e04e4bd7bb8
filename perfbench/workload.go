package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/runner"
)

const (
	benchScale  = 1 // input size of the built-in benchmarks (1 = the evaluation size)
	scaleFactor = 4 // clone miniaturization factor
	// clonesPer is how many clones of each benchmark a workload
	// simulates: one from the run's seed and clonesPer-1 anchor clones
	// from fixed seeds, the same in every run. One clone's fidelity
	// swings with its seed (srad's clone row-buffer locality spans
	// 0.62-0.82 over seeds 1-6 against 0.64 for the original), which
	// spread l1-sweep's rbl_gap_pp 18% across seeds 1-10. Averaging
	// with two anchors leaves a third of that swing.
	clonesPer = 3
	// anchorSeed + j seeds anchor clone j.
	anchorSeed = 1 << 63
	// pinnedSeed is the clone seed the every-warp-PC check inspects,
	// whatever the run's seed: which benchmarks fail that check depends
	// on the seed, and a run must fail the same share of operations
	// every time.
	pinnedSeed = 1
	// setupReps is how many times a sweep workload sets up; setup_s is
	// the median.
	setupReps = 5
	// knownFault names the check that fails today because of a fault in
	// the program (see README); its failures count as failed operations
	// but leave the run correct.
	knownFault = "clone.every_warp_pcs"
)

// cloneSeed is the seed of clone j of a run with the given seed: the
// run's seed for clone 0, a fixed anchor seed for the others.
func cloneSeed(seed uint64, j int) uint64 {
	if j == 0 {
		return seed
	}
	return anchorSeed + uint64(j)
}

// workloadDef is one named workload: the benchmarks it clones and, for
// the sweeps, the configurations every (benchmark, configuration) point
// simulates both sides at.
type workloadDef struct {
	name       string
	benchmarks []string
	configs    func() []eval.ConfigGen // nil: the clone-all pipeline
	// rOn picks the figure clone_r correlates across all pairs.
	rOn func(gmap.Metrics) float64
}

func l1Miss(m gmap.Metrics) float64  { return m.L1MissRate() }
func readLat(m gmap.Metrics) float64 { return m.DRAM.AvgReadLatency() }
func workloadNames() []string        { return []string{"l1-sweep", "dram-sweep", "clone-all"} }

func lookupWorkload(name string) (workloadDef, bool) {
	switch name {
	case "l1-sweep":
		return workloadDef{name: name, benchmarks: []string{"kmeans", "hotspot", "bp", "srad"},
			configs: func() []eval.ConfigGen { return eval.L1Sweep(0) }, rOn: l1Miss}, true
	case "dram-sweep":
		return workloadDef{name: name, benchmarks: []string{"blk", "nn", "bfs", "mum"},
			configs: func() []eval.ConfigGen { return eval.DRAMSweep(0) }, rOn: readLat}, true
	case "clone-all":
		return workloadDef{name: name, benchmarks: gmap.Benchmarks(), rOn: l1Miss}, true
	}
	return workloadDef{}, false
}

// subject is one benchmark set up for simulation: sides[0] simulates
// the original, sides[1+j] clone j (a copy of the workload whose Proxy
// is that clone). facts are each side's input facts.
type subject struct {
	name  string
	w     *gmap.Workload
	sides []*gmap.Workload
	facts []inputFacts
}

func (s *subject) clone(j int) *gmap.Proxy { return s.sides[1+j].Proxy }

// simOut is one simulate call's result and the process CPU time it took.
type simOut struct {
	m   gmap.Metrics
	dur time.Duration
	err error
	// clone is -1 for the original, else the clone's index; sched is the
	// warp scheduler the call ran under.
	clone int
	sched string
}

// pass is one timed repetition: a sweep set-up, or a round of every
// operation of the workload. Its times are process CPU time: on a shared
// host, wall time also counts the time other tenants hold the CPU, which
// made l1-sweep rounds spread 16% against 7% in CPU time.
type pass struct {
	traced bool
	setup  time.Duration // set-up: gmap.Prepare and the extra clones
	run    time.Duration // the operations after set-up
	jobs   int           // runner jobs
	sims   []simOut
}

// bench runs one workload and accumulates everything it reports.
type bench struct {
	def  workloadDef
	seed uint64
	// tracer holds a traced run's spans; rec is tracer during its traced
	// passes and nil otherwise.
	tracer, rec *recorder

	checks    *tally
	attempted int
	failed    int
	setups    []pass
	rounds    []pass
	pairs     [][2]gmap.Metrics       // original and clone, first round
	firstSims map[string]gmap.Metrics // determinism reference
	counts    setupCounts
}

func newBench(def workloadDef, seed uint64, traced bool) *bench {
	b := &bench{def: def, seed: seed, checks: newTally(), firstSims: make(map[string]gmap.Metrics)}
	if traced {
		b.tracer = newRecorder()
	}
	return b
}

// setUp builds one benchmark's workload and its extra clones. Untraced
// passes make the one gmap.Prepare call; traced passes call its stages
// one by one, in the order core.PrepareTrace makes them, each inside its
// own span.
func (b *bench) setUp(name string, parent int) (*subject, error) {
	pcfg := gmap.DefaultProfileConfig()
	gopts := gmap.GenerateOptions{Seed: b.seed, ScaleFactor: scaleFactor}
	var w *gmap.Workload
	if b.rec == nil {
		var err error
		if w, err = gmap.Prepare(name, benchScale, pcfg, gopts); err != nil {
			return nil, err
		}
	} else {
		id := b.rec.start(parent, "kernelsim.emulate", "benchmark", name)
		tr, err := gmap.BenchmarkTrace(name, benchScale)
		b.rec.end(id)
		if err != nil {
			return nil, err
		}
		id = b.rec.start(parent, "profiler.profile", "benchmark", name)
		p, err := gmap.ProfileTrace(tr, pcfg)
		b.rec.end(id)
		if err != nil {
			return nil, err
		}
		id = b.rec.start(parent, "synth.generate", "benchmark", name, "seed", fmt.Sprint(gopts.Seed))
		proxy, err := gmap.Generate(p, gopts)
		b.rec.end(id)
		if err != nil {
			return nil, err
		}
		id = b.rec.start(parent, "gpu.coalesce", "benchmark", name)
		warps := gmap.Coalesce(tr, pcfg.LineSize)
		b.rec.end(id)
		w = &gmap.Workload{Name: tr.Name, Trace: tr, Warps: warps, Profile: p, Proxy: proxy}
	}
	s := &subject{name: name, w: w, sides: []*gmap.Workload{w, w}}
	for j := 1; j < clonesPer; j++ {
		gopts.Seed = cloneSeed(b.seed, j)
		id := b.rec.start(parent, "synth.generate", "benchmark", name, "seed", fmt.Sprint(gopts.Seed))
		proxy, err := gmap.Generate(w.Profile, gopts)
		b.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("clone %d: %w", j, err)
		}
		side := *w
		side.Proxy = proxy
		s.sides = append(s.sides, &side)
	}
	return s, nil
}

// addFacts computes each side's input facts (benchmark-side work, kept
// out of every timed pass).
func (s *subject) addFacts() {
	s.facts = []inputFacts{factsOf(s.w.Warps)}
	for j := 0; j < clonesPer; j++ {
		s.facts = append(s.facts, factsOf(s.clone(j).Warps))
	}
}

// point is one operation: every side of a subject simulated under an
// original configuration, the clones under their own configuration.
type point struct {
	s          *subject
	orig, prox eval.ConfigGen
	config     string
}

// simulate runs one side of a point and times the call.
func (b *bench) simulate(pt point, clone int, parent int) simOut {
	g := pt.orig
	if clone >= 0 {
		g = pt.prox
	}
	cfg, err := g.Make()
	out := simOut{clone: clone, sched: cfg.Scheduler.String(), err: err}
	if err != nil {
		return out
	}
	id := b.rec.start(parent, "memsim.simulate", "benchmark", pt.s.name, "config", g.Label,
		"side", sideName(clone), "sched", out.sched)
	t := cpuTime()
	if clone < 0 {
		out.m, out.err = pt.s.w.SimulateOriginal(cfg)
	} else {
		out.m, out.err = pt.s.sides[1+clone].SimulateProxy(cfg)
	}
	out.dur = cpuTime() - t
	b.rec.end(id)
	return out
}

func sideName(clone int) string {
	if clone < 0 {
		return "orig"
	}
	return fmt.Sprintf("clone%d", clone)
}

// runPoints simulates every side of every point as runner jobs on one
// worker and returns the results in order with the runner's CPU time.
func (b *bench) runPoints(points []point, parent int) ([][]simOut, time.Duration, error) {
	runID := b.rec.start(parent, "runner.run", "jobs", fmt.Sprint(len(points)))
	jobs := make([]runner.Job[[]simOut], len(points))
	for i, pt := range points {
		pt := pt
		jobs[i] = runner.Job[[]simOut]{
			Key: pt.s.name + "|" + pt.config,
			Run: func(context.Context) ([]simOut, error) {
				out := make([]simOut, 0, 1+clonesPer)
				for c := -1; c < clonesPer; c++ {
					out = append(out, b.simulate(pt, c, runID))
				}
				return out, nil
			},
		}
	}
	t := cpuTime()
	res, _, err := runner.Run(context.Background(), runner.Options{Workers: 1}, jobs)
	took := cpuTime() - t
	b.rec.end(runID)
	if err != nil {
		return nil, took, fmt.Errorf("runner: %w", err)
	}
	out := make([][]simOut, len(res))
	for i, r := range res {
		out[i] = r.Value
		if r.Err != nil { // a panic, caught by the runner
			out[i] = []simOut{{clone: -1, err: r.Err}}
		}
	}
	return out, took, nil
}

// checkPoint runs the per-simulation checks on one point and records its
// pairs; it returns whether any check failed.
func (b *bench) checkPoint(pt point, sims []simOut, first bool, parent int) bool {
	id := b.rec.start(parent, "perfbench.check", "benchmark", pt.s.name, "config", pt.config)
	defer b.rec.end(id)
	bad := false
	for _, s := range sims {
		subject := pt.s.name + " " + sideName(s.clone) + " " + pt.config
		if s.err != nil {
			bad = b.checks.record("sim.run", subject, s.err) || bad
			continue
		}
		bad = b.checks.record("sim.laws", subject, checkSim(s.m, pt.s.facts[1+s.clone])) || bad
		if f, ok := b.firstSims[subject]; ok {
			bad = b.checks.record("sim.repeatable", subject, checkSameMetrics(s.m, f)) || bad
		} else {
			b.firstSims[subject] = s.m
		}
	}
	if first && !bad {
		for _, s := range sims[1:] {
			b.pairs = append(b.pairs, [2]gmap.Metrics{sims[0].m, s.m})
		}
	}
	return bad
}

// runSweep runs a sweep workload: set-up passes, then rounds of every
// (benchmark, configuration) point until the time budget is spent.
func (b *bench) runSweep(budget time.Duration) error {
	var subjects []*subject
	for rep := 0; rep < setupReps*b.passesPer(); rep++ {
		b.rec = b.recorderFor(rep)
		runtime.GC() // no pass pays for the garbage of the one before
		root := b.rec.start(0, "perfbench.setup")
		t := cpuTime()
		subjects = subjects[:0]
		for _, name := range b.def.benchmarks {
			s, err := b.setUp(name, root)
			if err != nil {
				return fmt.Errorf("set up %s: %w", name, err)
			}
			subjects = append(subjects, s)
		}
		b.setups = append(b.setups, pass{traced: b.rec != nil, setup: cpuTime() - t})
		b.rec.end(root)
	}
	b.rec = nil
	gens := b.def.configs()
	var points []point
	for _, s := range subjects {
		s.addFacts()
		if err := b.counts.add(s); err != nil {
			return err
		}
		for _, g := range gens {
			points = append(points, point{s: s, orig: g, prox: g, config: g.Label})
		}
	}
	return b.repeatRounds(budget, func(root int) (pass, error) {
		first := len(b.rounds) == 0
		sims, took, err := b.runPoints(points, root)
		if err != nil {
			return pass{}, err
		}
		p := pass{run: took, jobs: len(points)}
		for i, pt := range points {
			p.sims = append(p.sims, sims[i]...)
			b.attempted++
			if b.checkPoint(pt, sims[i], first, root) {
				b.failed++
			}
		}
		return p, nil
	})
}

// runCloneAll runs rounds of the whole clone pipeline on every
// benchmark: set-up, codec round trips, and the Table 2 simulations
// under LRR and under GTO against PSelf 0.9.
func (b *bench) runCloneAll(budget time.Duration) error {
	lrr, err := table2(memsim.LRR)
	if err != nil {
		return err
	}
	gto, err := table2(memsim.GTO)
	if err != nil {
		return err
	}
	pself, err := table2(memsim.PSelf)
	if err != nil {
		return err
	}
	return b.repeatRounds(budget, func(root int) (pass, error) {
		var p pass
		first := len(b.rounds) == 0
		for _, name := range b.def.benchmarks {
			runtime.GC() // each operation starts from the same heap
			op := b.rec.start(root, "perfbench.op", "benchmark", name)
			bad, err := b.cloneOp(name, op, first, &p, [3]eval.ConfigGen{lrr, gto, pself})
			b.rec.end(op)
			if err != nil {
				return p, fmt.Errorf("%s: %w", name, err)
			}
			b.attempted++
			if bad {
				b.failed++
			}
		}
		return p, nil
	})
}

// cloneOp is one clone-all operation on one benchmark. It adds its
// timings and simulations to p and reports whether a check failed.
func (b *bench) cloneOp(name string, op int, first bool, p *pass, cfgs [3]eval.ConfigGen) (bool, error) {
	t := cpuTime()
	s, err := b.setUp(name, op)
	p.setup += cpuTime() - t
	if err != nil {
		return false, err
	}
	t = cpuTime()
	art, err := roundTrip(s, b.rec, op)
	p.run += cpuTime() - t
	if err != nil {
		return false, err
	}
	s.addFacts()
	points := []point{
		{s: s, orig: cfgs[0], prox: cfgs[0], config: "table2 LRR"},
		{s: s, orig: cfgs[1], prox: cfgs[2], config: "table2 GTO/PSelf"},
	}
	sims, took, err := b.runPoints(points, op)
	p.run += took
	if err != nil {
		return false, err
	}
	p.jobs += len(points)
	if first {
		if err := b.counts.add(s); err != nil {
			return false, err
		}
	}
	bad := false
	for i, pt := range points {
		p.sims = append(p.sims, sims[i]...)
		bad = b.checkPoint(pt, sims[i], first, op) || bad
	}
	return b.checkPipeline(s, art, op) || bad, nil
}

// table2 returns the Table 2 configuration (16KB 4-way L1) of
// eval.SchedulerSweep under the given scheduler.
func table2(policy memsim.SchedPolicy) (eval.ConfigGen, error) {
	want := gmap.DefaultSimConfig().L1
	for _, g := range eval.SchedulerSweep(0, policy) {
		cfg, err := g.Make()
		if err != nil {
			return eval.ConfigGen{}, err
		}
		if cfg.L1 == want {
			return g, nil
		}
	}
	return eval.ConfigGen{}, fmt.Errorf("no Table 2 L1 configuration in the %v scheduler sweep", policy)
}

// artifacts are one subject's encodings and what decoding them gave.
type artifacts struct {
	traceEnc, profileEnc []byte
	trace                *gmap.KernelTrace
	profile              *gmap.Profile
	traceErr, profileErr error
	proxies              []*gmap.Proxy // decoded clones, by index
	proxyErrs            []error
}

// roundTrip encodes the trace, the profile and every clone and decodes
// them again. Only an encoding failure is returned; decoding failures
// are for the checks to report.
func roundTrip(s *subject, rec *recorder, parent int) (artifacts, error) {
	var a artifacts
	encode := func(what string, write func(*bytes.Buffer) error) ([]byte, error) {
		id := rec.start(parent, "trace.encode", "benchmark", s.name, "artifact", what)
		defer rec.end(id)
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return nil, fmt.Errorf("encode %s: %w", what, err)
		}
		return buf.Bytes(), nil
	}
	decode := func(what string, read func()) {
		id := rec.start(parent, "trace.decode", "benchmark", s.name, "artifact", what)
		read()
		rec.end(id)
	}
	var err error
	if a.traceEnc, err = encode("trace", func(buf *bytes.Buffer) error { return gmap.WriteTrace(buf, s.w.Trace) }); err != nil {
		return a, err
	}
	decode("trace", func() { a.trace, a.traceErr = gmap.ReadTrace(bytes.NewReader(a.traceEnc)) })
	if a.profileEnc, err = encode("profile", func(buf *bytes.Buffer) error { return gmap.WriteProfile(buf, s.w.Profile) }); err != nil {
		return a, err
	}
	decode("profile", func() { a.profile, a.profileErr = gmap.ReadProfile(bytes.NewReader(a.profileEnc)) })
	for j := 0; j < clonesPer; j++ {
		enc, err := encode("proxy", func(buf *bytes.Buffer) error { return gmap.WriteProxy(buf, s.clone(j)) })
		if err != nil {
			return a, err
		}
		decode("proxy", func() {
			p, err := gmap.ReadProxy(bytes.NewReader(enc))
			a.proxies, a.proxyErrs = append(a.proxies, p), append(a.proxyErrs, err)
		})
	}
	return a, nil
}

// checkPipeline runs clone-all's pipeline checks on one subject and
// returns whether any failed.
func (b *bench) checkPipeline(s *subject, a artifacts, parent int) bool {
	id := b.rec.start(parent, "perfbench.check", "benchmark", s.name)
	defer b.rec.end(id)
	bad := b.checks.record("codec.trace", s.name, checkTrace(a.trace, a.traceErr, s.w.Trace))
	bad = b.checks.record("codec.profile", s.name, checkProfile(a.profile, a.profileErr, a.profileEnc)) || bad
	ref := referenceCoalesce(s.w.Trace, s.w.Profile.LineSize)
	bad = b.checks.record("coalesce.refmodel", s.name, sameWarps(s.w.Warps, ref)) || bad
	for j := 0; j < clonesPer; j++ {
		subject := s.name + " " + sideName(j)
		bad = b.checks.record("codec.proxy", subject, checkProxy(a.proxies[j], a.proxyErrs[j], s.clone(j))) || bad
		bad = b.checks.record("clone.reduction", subject,
			checkReduction(s.facts[0].requests, s.facts[1+j].requests, scaleFactor)) || bad
	}
	pinned := s.clone(0)
	if b.seed != pinnedSeed {
		p, err := gmap.Generate(s.w.Profile, gmap.GenerateOptions{Seed: pinnedSeed, ScaleFactor: scaleFactor})
		if err != nil {
			return b.checks.record(knownFault, s.name, err) || bad
		}
		pinned = p
	}
	return b.checks.record(knownFault, s.name, checkUniversalPCs(s.w.Warps, pinned.Warps)) || bad
}

// passesPer is how many passes make one measured repetition: traced runs
// alternate an untraced pass with a traced one, so the two compare
// under the same conditions.
func (b *bench) passesPer() int {
	if b.tracer != nil {
		return 2
	}
	return 1
}

// recorderFor returns the recorder for pass i: every second pass of a
// traced run is traced.
func (b *bench) recorderFor(i int) *recorder {
	if b.tracer == nil || i%2 == 0 {
		return nil
	}
	return b.tracer
}

// repeatRounds repeats round until another round of the last one's
// length would overrun the budget, with at least one round (traced: one
// untraced and one traced).
func (b *bench) repeatRounds(budget time.Duration, round func(root int) (pass, error)) error {
	start := time.Now()
	for i := 0; ; i++ {
		b.rec = b.recorderFor(i)
		runtime.GC()
		root := b.rec.start(0, "perfbench.round", "round", fmt.Sprint(i))
		t := time.Now()
		p, err := round(root)
		b.rec.end(root)
		if err != nil {
			return err
		}
		p.traced = b.rec != nil
		b.rounds = append(b.rounds, p)
		last := time.Since(t)
		if i+1 >= b.passesPer() && time.Since(start)+last > budget {
			break
		}
	}
	b.rec = nil
	return nil
}

// tally counts passes and failures per named check, remembering each
// distinct failure once.
type tally struct {
	order    []string
	pass     map[string]int
	fail     map[string]int
	failures map[string][]string
	seen     map[string]bool
}

func newTally() *tally {
	return &tally{pass: map[string]int{}, fail: map[string]int{},
		failures: map[string][]string{}, seen: map[string]bool{}}
}

// record counts one outcome of check name on subject and reports
// whether it failed.
func (t *tally) record(name, subject string, err error) bool {
	if _, ok := t.pass[name]; !ok {
		t.order = append(t.order, name)
		t.pass[name] = 0
	}
	if err == nil {
		t.pass[name]++
		return false
	}
	t.fail[name]++
	if msg := subject + ": " + err.Error(); !t.seen[name+msg] {
		t.seen[name+msg] = true
		t.failures[name] = append(t.failures[name], msg)
	}
	return true
}

// unexpected reports whether any check other than the known fault failed.
func (t *tally) unexpected() bool {
	for name, n := range t.fail {
		if n > 0 && name != knownFault {
			return true
		}
	}
	return false
}

func (t *tally) lines() []string {
	var out []string
	for _, name := range t.order {
		line := fmt.Sprintf("check %s: %d/%d passed", name, t.pass[name], t.pass[name]+t.fail[name])
		if t.fail[name] > 0 {
			line += "; failures: " + strings.Join(t.failures[name], "; ")
		}
		out = append(out, line)
	}
	return out
}

// cpuTime is the CPU time the process has used, all threads together.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
