package main

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/refmodel"
	"github.com/uteda/gmap/internal/trace"
)

// coldLine is the granularity of the L2 cold-miss bound. Every sweep
// here keeps the L2 line at 128 bytes, so each distinct 128-byte line
// of the input must miss at least once in the initially empty L2.
const coldLine = 128

// inputFacts are the properties of a simulation's input warps that the
// simulator's metrics must agree with, computed without the simulator.
type inputFacts struct {
	requests uint64 // non-barrier requests
	lines    uint64 // distinct coldLine-byte lines they touch
}

func factsOf(warps []gmap.WarpTrace) inputFacts {
	lines := make(map[uint64]struct{})
	var f inputFacts
	for i := range warps {
		for _, r := range warps[i].Requests {
			if r.Kind == trace.Sync {
				continue
			}
			f.requests++
			lines[r.Addr/coldLine] = struct{}{}
		}
	}
	f.lines = uint64(len(lines))
	return f
}

// checkSim checks one simulation's metrics against its input and against
// the conservation laws every run must satisfy.
func checkSim(m gmap.Metrics, in inputFacts) error {
	switch {
	case m.Requests != in.requests:
		return fmt.Errorf("%d requests simulated, input has %d", m.Requests, in.requests)
	case m.L1.Hits+m.L1.Misses != m.L1.Accesses || m.L1.Accesses != m.Requests:
		return fmt.Errorf("L1 hits %d + misses %d, accesses %d, requests %d",
			m.L1.Hits, m.L1.Misses, m.L1.Accesses, m.Requests)
	case m.L2.Hits+m.L2.Misses != m.L2.Accesses:
		return fmt.Errorf("L2 hits %d + misses %d != accesses %d", m.L2.Hits, m.L2.Misses, m.L2.Accesses)
	case m.L2.Misses < in.lines:
		return fmt.Errorf("L2 misses %d below the %d distinct lines of a cold L2", m.L2.Misses, in.lines)
	case m.DRAM.Reads+m.DRAM.Writes != m.DRAM.Requests,
		m.DRAM.RowHits+m.DRAM.RowMisses+m.DRAM.RowConflicts != m.DRAM.Requests:
		return fmt.Errorf("DRAM reads %d + writes %d, requests %d, row hits %d + misses %d + conflicts %d",
			m.DRAM.Reads, m.DRAM.Writes, m.DRAM.Requests, m.DRAM.RowHits, m.DRAM.RowMisses, m.DRAM.RowConflicts)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"L1 miss rate", m.L1MissRate()},
		{"L2 miss rate", m.L2MissRate()},
		{"row-buffer locality", m.DRAM.RowBufferLocality()},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("%s %v outside [0, 1]", r.name, r.v)
		}
	}
	return nil
}

// referenceCoalesce rebuilds a trace's warp streams with
// refmodel.Coalesce, one SIMT-issued instruction at a time: warps are
// 32 consecutive threads of a block, and each step issues the pending
// access of the lowest-lane unfinished thread together with every later
// lane whose pending access has the same PC and kind.
func referenceCoalesce(tr *gmap.KernelTrace, lineSize uint64) []gmap.WarpTrace {
	const warpSize = 32
	perBlock := (tr.BlockDim + warpSize - 1) / warpSize
	warps := make([]gmap.WarpTrace, tr.GridDim*perBlock)
	for w := range warps {
		block := w / perBlock
		lo := block*tr.BlockDim + (w%perBlock)*warpSize
		hi := min(lo+warpSize, (block+1)*tr.BlockDim, len(tr.Threads))
		warps[w] = gmap.WarpTrace{WarpID: w, Block: block}
		if lo >= hi {
			continue
		}
		cursor := make([]int, hi-lo)
		for {
			leader := -1
			for t := lo; t < hi; t++ {
				if cursor[t-lo] < len(tr.Threads[t].Accesses) {
					leader = t
					break
				}
			}
			if leader < 0 {
				break
			}
			lead := tr.Threads[leader].Accesses[cursor[leader-lo]]
			var addrs []uint64
			for t := leader; t < hi; t++ {
				acc := tr.Threads[t].Accesses
				if c := cursor[t-lo]; c < len(acc) && acc[c].PC == lead.PC && acc[c].Kind == lead.Kind {
					addrs = append(addrs, acc[c].Addr)
					cursor[t-lo]++
				}
			}
			warps[w].Requests = append(warps[w].Requests,
				refmodel.Coalesce(w, lead.PC, lead.Kind, addrs, lineSize)...)
		}
	}
	return warps
}

// sameWarps reports the first difference between two warp-stream sets,
// treating nil and empty request lists alike.
func sameWarps(got, want []gmap.WarpTrace) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d warps, want %d", len(got), len(want))
	}
	for w := range want {
		g, x := got[w], want[w]
		if g.WarpID != x.WarpID || g.Block != x.Block || len(g.Requests) != len(x.Requests) {
			return fmt.Errorf("warp %d: id %d block %d with %d requests, want id %d block %d with %d",
				w, g.WarpID, g.Block, len(g.Requests), x.WarpID, x.Block, len(x.Requests))
		}
		for i := range x.Requests {
			if g.Requests[i] != x.Requests[i] {
				return fmt.Errorf("warp %d request %d: %v, want %v", w, i, g.Requests[i], x.Requests[i])
			}
		}
	}
	return nil
}

// sameTrace reports the first difference between two per-thread traces.
func sameTrace(got, want *gmap.KernelTrace) error {
	if got.Name != want.Name || got.GridDim != want.GridDim || got.BlockDim != want.BlockDim ||
		len(got.Threads) != len(want.Threads) {
		return fmt.Errorf("header %q %dx%d with %d threads, want %q %dx%d with %d",
			got.Name, got.GridDim, got.BlockDim, len(got.Threads),
			want.Name, want.GridDim, want.BlockDim, len(want.Threads))
	}
	for t := range want.Threads {
		g, x := got.Threads[t], want.Threads[t]
		if g.ThreadID != x.ThreadID || len(g.Accesses) != len(x.Accesses) {
			return fmt.Errorf("thread %d: id %d with %d accesses, want id %d with %d",
				t, g.ThreadID, len(g.Accesses), x.ThreadID, len(x.Accesses))
		}
		for i := range x.Accesses {
			if g.Accesses[i] != x.Accesses[i] {
				return fmt.Errorf("thread %d access %d: %v, want %v", t, i, g.Accesses[i], x.Accesses[i])
			}
		}
	}
	return nil
}

// checkTrace checks a trace decoded from its encoding against the
// trace that was written.
func checkTrace(got *gmap.KernelTrace, decodeErr error, want *gmap.KernelTrace) error {
	if decodeErr != nil {
		return fmt.Errorf("decode trace: %w", decodeErr)
	}
	return sameTrace(got, want)
}

// checkProfile checks that a decoded profile re-encodes to the bytes it
// was decoded from.
func checkProfile(got *gmap.Profile, decodeErr error, enc []byte) error {
	if decodeErr != nil {
		return fmt.Errorf("decode profile: %w", decodeErr)
	}
	var again bytes.Buffer
	if err := gmap.WriteProfile(&again, got); err != nil {
		return fmt.Errorf("re-encode profile: %w", err)
	}
	if !bytes.Equal(again.Bytes(), enc) {
		return fmt.Errorf("profile re-encodes to %d bytes, differing from the %d decoded", again.Len(), len(enc))
	}
	return nil
}

// checkProxy checks a proxy decoded from its encoding against the proxy
// that was written.
func checkProxy(got *gmap.Proxy, decodeErr error, want *gmap.Proxy) error {
	if decodeErr != nil {
		return fmt.Errorf("decode proxy: %w", decodeErr)
	}
	if got.Name != want.Name || got.GridDim != want.GridDim || got.BlockDim != want.BlockDim {
		return fmt.Errorf("proxy header %q %dx%d, want %q %dx%d",
			got.Name, got.GridDim, got.BlockDim, want.Name, want.GridDim, want.BlockDim)
	}
	return sameWarps(got.Warps, want.Warps)
}

// Reduction band: the clone must carry between 1/(2F) and 2/F of the
// original's demand requests at scale factor F. The sampled ratio
// itself depends on the seed (3.0x to 6.3x at F = 4 over seeds 1-400),
// so the band is wide enough to hold at every seed and fails only a
// clone that misses the factor by 2x or more.
const reductionSlack = 2

func checkReduction(orig, clone uint64, factor float64) error {
	if clone == 0 {
		return fmt.Errorf("clone has no demand requests")
	}
	x := float64(orig) / float64(clone)
	if x < factor/reductionSlack || x > factor*reductionSlack {
		return fmt.Errorf("original/clone demand requests %.2f outside [%.1f, %.1f]",
			x, factor/reductionSlack, factor*reductionSlack)
	}
	return nil
}

// universalPCs returns the PCs that appear in every non-empty warp.
func universalPCs(warps []gmap.WarpTrace) []uint64 {
	var common map[uint64]bool
	for i := range warps {
		if len(warps[i].Requests) == 0 {
			continue
		}
		seen := make(map[uint64]bool)
		for _, r := range warps[i].Requests {
			seen[r.PC] = true
		}
		if common == nil {
			common = seen
			continue
		}
		for pc := range common {
			if !seen[pc] {
				delete(common, pc)
			}
		}
	}
	pcs := make([]uint64, 0, len(common))
	for pc := range common {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// missingPCs returns the PCs of want that no request of warps carries.
func missingPCs(want []uint64, warps []gmap.WarpTrace) []uint64 {
	have := make(map[uint64]bool)
	for i := range warps {
		for _, r := range warps[i].Requests {
			have[r.PC] = true
		}
	}
	var miss []uint64
	for _, pc := range want {
		if !have[pc] {
			miss = append(miss, pc)
		}
	}
	return miss
}

// checkUniversalPCs checks that the clone keeps every PC that every warp
// of the original executes.
func checkUniversalPCs(orig, clone []gmap.WarpTrace) error {
	if miss := missingPCs(universalPCs(orig), clone); len(miss) > 0 {
		return fmt.Errorf("clone drops every-warp PC(s) %#x", miss)
	}
	return nil
}

// checkSameMetrics checks that a repeated simulation reproduced the
// metrics of its first run exactly.
func checkSameMetrics(got, first gmap.Metrics) error {
	if got.Cycles != first.Cycles || got.Requests != first.Requests || got.L1 != first.L1 ||
		got.L2 != first.L2 || got.DRAM != first.DRAM || got.MSHRStalls != first.MSHRStalls {
		return fmt.Errorf("repeat run differs: %d cycles, first run %d", got.Cycles, first.Cycles)
	}
	return nil
}
