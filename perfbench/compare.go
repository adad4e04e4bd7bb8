package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the compare mode reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is one saved untraced run: its header and its result line.
type runResult struct {
	workload string
	seed     uint64
	correct  bool
	failed   float64 // share of attempted operations
	values   map[string]float64
}

// parseRun reads one saved run's standard output. ok is false for a
// traced run, whose metrics are not end-to-end ones.
func parseRun(r io.Reader) (res runResult, ok bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var last string
	traced := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, found := strings.CutPrefix(line, "perfbench "); found {
			for _, f := range strings.Fields(rest) {
				k, v, _ := strings.Cut(f, "=")
				switch k {
				case "workload":
					res.workload = v
				case "seed":
					if res.seed, err = strconv.ParseUint(v, 10, 64); err != nil {
						return res, false, fmt.Errorf("bad seed in header: %w", err)
					}
				case "trace":
					traced = v == "1"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return res, false, err
	}
	if res.workload == "" {
		return res, false, errors.New("no perfbench header line")
	}
	var out struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return res, false, fmt.Errorf("last line is not a result: %w", err)
	}
	if out.Attempted < 1 {
		return res, false, errors.New("result attempted no operation")
	}
	res.correct = out.Correct
	res.failed = float64(out.Failed) / float64(out.Attempted)
	res.values = make(map[string]float64, len(out.Metrics))
	for k, v := range out.Metrics {
		res.values[k] = v.Value
	}
	return res, !traced, nil
}

// loadRuns reads every regular file under each path (a file or a
// directory of saved runs) and keeps the untraced ones.
func loadRuns(paths []string) ([]runResult, error) {
	var runs []runResult
	for _, root := range paths {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r, ok, err := parseRun(f)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if ok {
				runs = append(runs, r)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no untraced benchmark results under %v", paths)
	}
	return runs, nil
}

// verdict judges one metric on one workload. better is "lower" or
// "higher"; parent and change map seed to value, so runs pair by seed.
type verdict struct {
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	changeQ1, changeQ3   float64
	pairs, wins          int
	outcome              string // better, worse, same or unresolved
}

func judge(parent, change map[uint64]float64, better string, bound float64) verdict {
	pv, cv := values(parent), values(change)
	var v verdict
	v.parentQ1, v.parentMed, v.parentQ3 = quartiles(pv)
	v.changeQ1, v.changeMed, v.changeQ3 = quartiles(cv)
	improves := func(c, p float64) bool {
		if better == "lower" {
			return c < p
		}
		return c > p
	}
	for seed, p := range parent {
		if c, ok := change[seed]; ok {
			v.pairs++
			if improves(c, p) {
				v.wins++
			}
		}
	}
	spread := max(relSpread(v.parentQ1, v.parentMed, v.parentQ3), relSpread(v.changeQ1, v.changeMed, v.changeQ3))
	dominates := true
	for _, c := range cv {
		for _, p := range pv {
			if !improves(c, p) {
				dominates = false
			}
		}
	}
	worse := v.changeMed > v.parentMed*(1+bound)
	if better == "higher" {
		worse = v.changeMed < v.parentMed*(1-bound)
	}
	gain := v.pairs > 0 && 10*v.wins >= 9*v.pairs && improves(v.changeMed, v.parentMed) &&
		abs(v.changeMed-v.parentMed) > v.parentQ3-v.parentQ1
	switch {
	case dominates:
		v.outcome = "better"
	case spread > bound:
		v.outcome = "unresolved"
	case gain:
		v.outcome = "better"
	case worse:
		v.outcome = "worse"
	default:
		v.outcome = "same"
	}
	return v
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return abs(q3-q1) / abs(med)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareMain prints, for every workload and end-to-end metric, both
// sides' median and quartiles and a verdict against the metric's bound.
// It fails when a metric got worse, a run was incorrect, or the failed
// share of operations differs between the sides.
func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [--benchmark BENCHMARK.json] PARENT CHANGE (files or directories of saved runs)")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	parent, err := loadRuns(fs.Args()[:1])
	if err != nil {
		return err
	}
	change, err := loadRuns(fs.Args()[1:])
	if err != nil {
		return err
	}
	bySide := func(runs []runResult) map[string][]runResult {
		m := make(map[string][]runResult)
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	pw, cw := bySide(parent), bySide(change)
	var problems []string
	for _, wl := range sortedKeys(pw) {
		ps, cs := pw[wl], cw[wl]
		if len(cs) == 0 {
			problems = append(problems, wl+": no change runs")
			continue
		}
		fmt.Fprintf(stdout, "%s: %d parent runs, %d change runs; failed share %.6f -> %.6f\n",
			wl, len(ps), len(cs), ps[0].failed, cs[0].failed)
		// Within one side every run fails the same share of operations;
		// a change may lower that share but not raise it.
		for _, side := range [][]runResult{ps, cs} {
			for _, r := range side {
				if !r.correct {
					problems = append(problems, fmt.Sprintf("%s seed %d: incorrect run", wl, r.seed))
				}
				if r.failed != side[0].failed {
					problems = append(problems, fmt.Sprintf("%s seed %d: failed share %.6f differs from %.6f on the same side",
						wl, r.seed, r.failed, side[0].failed))
				}
			}
		}
		if cs[0].failed > ps[0].failed {
			problems = append(problems, fmt.Sprintf("%s: more operations fail (%.6f, parent %.6f)", wl, cs[0].failed, ps[0].failed))
		}
		for _, m := range spec.EndToEnd {
			pm, cm := make(map[uint64]float64), make(map[uint64]float64)
			for _, r := range ps {
				pm[r.seed] = r.values[m.Name]
			}
			for _, r := range cs {
				cm[r.seed] = r.values[m.Name]
			}
			v := judge(pm, cm, m.Better, m.Bound)
			fmt.Fprintf(stdout, "  %-15s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s  wins %d/%d  bound %.0f%%  %s\n",
				m.Name, v.parentMed, v.parentQ1, v.parentQ3, v.changeMed, v.changeQ1, v.changeQ3, m.Unit,
				v.wins, v.pairs, 100*m.Bound, v.outcome)
			if v.outcome == "worse" {
				problems = append(problems, fmt.Sprintf("%s %s: worse by more than %.0f%%", wl, m.Name, 100*m.Bound))
			}
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	return nil
}
