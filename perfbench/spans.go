package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around that call. Start and End are wall time since the
// recorder began; CPUStart and CPUEnd the process CPU time, which self
// times are computed from. Its layer is the part of its name before the
// first dot.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"` // 0 for a root span
	Name     string            `json:"name"`
	Start    time.Duration     `json:"start_ns"`
	End      time.Duration     `json:"end_ns"`
	CPUStart time.Duration     `json:"cpu_start_ns"`
	CPUEnd   time.Duration     `json:"cpu_end_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay one branch per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
// attrs are key, value pairs.
func (r *recorder) start(parent int, name string, attrs ...string) int {
	if r == nil {
		return 0
	}
	var a map[string]string
	if len(attrs) > 0 {
		a = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			a[attrs[i]] = attrs[i+1]
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.t0), CPUStart: cpuTime(), Attrs: a})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.t0)
	r.spans[id-1].CPUEnd = cpuTime()
}

// selfTimes returns each span's CPU time minus the part of it that its
// children cover, indexed like spans (whose ids are their positions + 1).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], iv{s.CPUStart, s.CPUEnd})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		cur := iv{s.CPUStart, s.CPUStart}
		for _, c := range ivs {
			lo, hi := max(c.lo, s.CPUStart), min(c.hi, s.CPUEnd)
			if hi <= lo {
				continue
			}
			if lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = iv{lo, hi}
			} else if hi > cur.hi {
				cur.hi = hi
			}
		}
		covered += cur.hi - cur.lo
		self[i] = s.CPUEnd - s.CPUStart - covered
	}
	return self
}

// medianSelf groups spans by key, sums each group's self time within
// each root span, and returns for every group the median of those
// per-root sums over the roots in which the group appears.
func medianSelf(spans []span, key func(span) string) map[string]time.Duration {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	perRoot := make(map[string]map[int]time.Duration)
	for i, s := range spans {
		if s.Parent == 0 {
			root[i] = s.ID
		} else {
			root[i] = root[s.Parent-1]
		}
		l := key(s)
		if perRoot[l] == nil {
			perRoot[l] = make(map[int]time.Duration)
		}
		perRoot[l][root[i]] += self[i]
	}
	out := make(map[string]time.Duration, len(perRoot))
	for l, byRoot := range perRoot {
		ds := make([]time.Duration, 0, len(byRoot))
		for _, d := range byRoot {
			ds = append(ds, d)
		}
		out[l] = time.Duration(medianSeconds(ds) * float64(time.Second))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeChrome writes the spans as Chrome trace events, loadable in
// Perfetto or chrome://tracing.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: 1, Args: s.Attrs,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs}); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
