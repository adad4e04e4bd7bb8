package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/uteda/gmap"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPPGap(t *testing.T) {
	// |0.5-0.4| = 0.10 and |0.2-0.25| = 0.05: mean 0.075, i.e. 7.5 pp.
	if got := ppGap([]float64{0.5, 0.2}, []float64{0.4, 0.25}); !near(got, 7.5) {
		t.Fatalf("ppGap = %v, want 7.5", got)
	}
	if got := ppGap(nil, nil); got != 0 {
		t.Fatalf("ppGap of no pairs = %v, want 0", got)
	}
}

func TestRelGapPct(t *testing.T) {
	// 50/100 and 100/200 are both 50%; the pair with a zero original
	// has no relative error and is left out.
	if got := relGapPct([]float64{100, 200, 0}, []float64{150, 100, 5}); !near(got, 50) {
		t.Fatalf("relGapPct = %v, want 50", got)
	}
}

func TestPearsonPooled(t *testing.T) {
	// Hand-computed: sxy = 3.5, sxx = 5, syy = 4.75, r = 3.5/sqrt(23.75).
	x, y := []float64{1, 2, 3, 4}, []float64{2, 4, 5, 4}
	if got, want := pearson(x, y), 3.5/math.Sqrt(23.75); !near(got, want) {
		t.Fatalf("pearson = %v, want %v", got, want)
	}
	if got := pearson(x, []float64{8, 6, 4, 2}); !near(got, -1) {
		t.Fatalf("pearson of a falling line = %v, want -1", got)
	}
	if got := pearson(x, []float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("pearson against a constant = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "perfbench.round", CPUStart: 0, CPUEnd: 100 * ms},
		{ID: 2, Parent: 1, Name: "memsim.simulate", CPUStart: 10 * ms, CPUEnd: 40 * ms},
		{ID: 3, Parent: 1, Name: "memsim.simulate", CPUStart: 30 * ms, CPUEnd: 60 * ms}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "cache.access", CPUStart: 15 * ms, CPUEnd: 25 * ms},
		{ID: 5, Parent: 1, Name: "trace.encode", CPUStart: 90 * ms, CPUEnd: 120 * ms}, // clipped to its parent
		{ID: 6, Name: "perfbench.round", CPUStart: 200 * ms, CPUEnd: 250 * ms},
		{ID: 7, Parent: 6, Name: "memsim.simulate", CPUStart: 200 * ms, CPUEnd: 210 * ms},
	}
	// Root 1 loses the union [10,60] and [90,100] of its children.
	want := []time.Duration{40 * ms, 20 * ms, 30 * ms, 10 * ms, 30 * ms, 40 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i+1, got[i], want[i])
		}
	}
	// memsim: 50ms in the first root and 10ms in the second; the median
	// of two is their mean.
	if got := medianSelf(spans, span.layer)["memsim"]; got != 30*ms {
		t.Errorf("memsim median self time per root %v, want 30ms", got)
	}
	if got := medianSelf(spans, span.layer)["cache"]; got != 10*ms {
		t.Errorf("cache median self time %v, want 10ms (only the root that reaches it)", got)
	}
}

// srad is the smallest built-in benchmark; its pipeline takes well
// under a second.
func prepareSrad(t *testing.T) *gmap.Workload {
	t.Helper()
	w, err := gmap.Prepare("srad", benchScale, gmap.DefaultProfileConfig(),
		gmap.GenerateOptions{Seed: 1, ScaleFactor: scaleFactor})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCheckSimRejectsTooFewL2Misses(t *testing.T) {
	w := prepareSrad(t)
	m, err := w.SimulateOriginal(gmap.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	facts := factsOf(w.Warps)
	if err := checkSim(m, facts); err != nil {
		t.Fatalf("real simulation rejected: %v", err)
	}
	bad := m
	bad.L2.Misses = facts.lines - 1
	bad.L2.Hits = bad.L2.Accesses - bad.L2.Misses // keep hits + misses = accesses
	if err := checkSim(bad, facts); err == nil || !strings.Contains(err.Error(), "distinct lines") {
		t.Fatalf("L2 misses below the distinct-line count accepted (err %v)", err)
	}
	bad = m
	bad.DRAM.Writes++
	if checkSim(bad, facts) == nil {
		t.Fatal("DRAM reads + writes != requests accepted")
	}
}

func TestUniversalPCCheckRejectsDroppedPC(t *testing.T) {
	w := prepareSrad(t)
	if err := checkUniversalPCs(w.Warps, w.Warps); err != nil {
		t.Fatalf("original against itself: %v", err)
	}
	pcs := universalPCs(w.Warps)
	if len(pcs) == 0 {
		t.Fatal("srad has no every-warp PC")
	}
	drop := pcs[0]
	clone := make([]gmap.WarpTrace, len(w.Warps))
	for i, wt := range w.Warps {
		clone[i] = gmap.WarpTrace{WarpID: wt.WarpID, Block: wt.Block}
		for _, r := range wt.Requests {
			if r.PC != drop {
				clone[i].Requests = append(clone[i].Requests, r)
			}
		}
	}
	if err := checkUniversalPCs(w.Warps, clone); err == nil {
		t.Fatalf("clone without PC %#x accepted", drop)
	}
}

func TestProxyCheckRejectsTruncatedEncoding(t *testing.T) {
	w := prepareSrad(t)
	var buf bytes.Buffer
	if err := gmap.WriteProxy(&buf, w.Proxy); err != nil {
		t.Fatal(err)
	}
	got, err := gmap.ReadProxy(bytes.NewReader(buf.Bytes()))
	if err := checkProxy(got, err, w.Proxy); err != nil {
		t.Fatalf("whole encoding rejected: %v", err)
	}
	cut := buf.Bytes()[:buf.Len()*2/3]
	got, err = gmap.ReadProxy(bytes.NewReader(cut))
	if err := checkProxy(got, err, w.Proxy); err == nil {
		t.Fatal("truncated proxy encoding accepted")
	}
}

func TestReferenceCoalesceAgrees(t *testing.T) {
	w := prepareSrad(t)
	if err := sameWarps(w.Warps, referenceCoalesce(w.Trace, w.Profile.LineSize)); err != nil {
		t.Fatal(err)
	}
	ref := referenceCoalesce(w.Trace, w.Profile.LineSize)
	ref[0].Requests[0].Threads--
	if sameWarps(w.Warps, ref) == nil {
		t.Fatal("a changed thread count went unnoticed")
	}
}

func TestCheckReductionBand(t *testing.T) {
	for _, c := range []struct {
		orig, clone uint64
		ok          bool
	}{
		{400, 100, true}, {800, 100, true}, {200, 100, true},
		{801, 100, false}, {199, 100, false}, {100, 0, false},
	} {
		if err := checkReduction(c.orig, c.clone, 4); (err == nil) != c.ok {
			t.Errorf("checkReduction(%d, %d) = %v, want ok=%v", c.orig, c.clone, err, c.ok)
		}
	}
}

func TestJudge(t *testing.T) {
	series := func(base float64, step float64) map[uint64]float64 {
		m := make(map[uint64]float64)
		for s := uint64(1); s <= 10; s++ {
			m[s] = base + step*float64(s%5)
		}
		return m
	}
	parent := series(10, 0.05)
	for _, c := range []struct {
		name   string
		change map[uint64]float64
		better string
		want   string
	}{
		{"faster", series(8, 0.05), "lower", "better"},
		{"slower", series(12, 0.05), "lower", "worse"},
		{"unchanged", series(10, 0.05), "lower", "same"},
		{"noisy", series(9, 3), "lower", "unresolved"},
		{"higher is better", series(8, 0.05), "higher", "worse"},
	} {
		if got := judge(parent, c.change, c.better, 0.1).outcome; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "perfbench workload=clone-all seed=7 seconds=1 trace=0\ncheck x: 1/1 passed\n" +
		`{"attempted":18,"correct":true,"failed":4,"metrics":{"run_s":{"unit":"s","value":3.5}}}` + "\n"
	r, ok, err := parseRun(strings.NewReader(out))
	if err != nil || !ok {
		t.Fatalf("parseRun: ok %v, err %v", ok, err)
	}
	if r.workload != "clone-all" || r.seed != 7 || !r.correct || !near(r.failed, 4.0/18) || r.values["run_s"] != 3.5 {
		t.Fatalf("parsed %+v", r)
	}
	if _, ok, _ := parseRun(strings.NewReader(strings.Replace(out, "trace=0", "trace=1", 1))); ok {
		t.Fatal("a traced run was taken for an end-to-end one")
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that an untraced run reports
// exactly BENCHMARK.json's end-to-end metrics and a traced run exactly
// its per-layer ones, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	def, _ := lookupWorkload("l1-sweep")
	b := newBench(def, 1, true)
	times, _ := b.layerTimes()
	traced := append(times, b.layerCounts()...)
	for _, c := range []struct {
		what string
		got  []metric
		want []decl
	}{{"end_to_end", b.endToEnd(), spec.EndToEnd}, {"per_layer", traced, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics reported, %d declared", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: reported %s (%s), declared %s (%s)", c.what, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
