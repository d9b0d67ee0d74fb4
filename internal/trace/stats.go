package trace

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Summary holds descriptive statistics of a workload, the numbers a
// corpus table (paper Table "workload summary") reports.
type Summary struct {
	Name            string
	Frames          int
	Draws           int
	DrawsPerFrame   float64 // mean
	MinDrawsFrame   int
	MaxDrawsFrame   int
	UniqueVS        int
	UniquePS        int
	UniqueMaterials int
	TotalVertices   int64
	TotalPrimitives int64
	Scenes          []string // distinct scene labels in first-seen order
}

// Summarize computes the workload summary.
func Summarize(w *Workload) Summary {
	z := NewSummarizer(w.Name)
	for fi := range w.Frames {
		z.Add(&w.Frames[fi])
	}
	return z.Summary()
}

// Summarizer accumulates a workload summary one frame at a time, in
// capture order: Summarize feeds it a workload's frames, and the core
// pass feeds it each frame as the source yields it.
type Summarizer struct {
	s         Summary
	ids       [3]idSet // VS, PS, materials
	sceneSeen map[string]bool
}

// NewSummarizer starts the summary of the named workload.
func NewSummarizer(name string) *Summarizer {
	return &Summarizer{s: Summary{Name: name}, sceneSeen: map[string]bool{}}
}

// Add counts the next frame.
func (z *Summarizer) Add(f *Frame) {
	s := &z.s
	s.Frames++
	if !z.sceneSeen[f.Scene] {
		z.sceneSeen[f.Scene] = true
		s.Scenes = append(s.Scenes, f.Scene)
	}
	n := len(f.Draws)
	s.Draws += n
	if s.MinDrawsFrame == 0 || n < s.MinDrawsFrame {
		s.MinDrawsFrame = n
	}
	if n > s.MaxDrawsFrame {
		s.MaxDrawsFrame = n
	}
	for di := range f.Draws {
		d := &f.Draws[di]
		z.ids[0].add(uint32(d.VS))
		z.ids[1].add(uint32(d.PS))
		z.ids[2].add(d.MaterialID)
		s.TotalVertices += d.TotalVertices()
		s.TotalPrimitives += d.TotalPrimitives()
	}
}

// Summary returns the summary of the frames added so far. Per-frame
// draw counts are integers, so their mean is exactly Draws / Frames.
func (z *Summarizer) Summary() Summary {
	s := z.s
	s.DrawsPerFrame = math.NaN()
	if s.Frames > 0 {
		s.DrawsPerFrame = float64(s.Draws) / float64(s.Frames)
	}
	s.UniqueVS = z.ids[0].len()
	s.UniquePS = z.ids[1].len()
	s.UniqueMaterials = z.ids[2].len()
	return s
}

// idSet is a set of uint32 ids: a fixed bitset for the ids below
// 1<<16, where captures keep their shader and material ids, and a map
// for any above.
type idSet struct {
	low  [1 << 16 / 64]uint64
	high map[uint32]struct{}
}

func (s *idSet) add(id uint32) {
	if id < 1<<16 {
		s.low[id/64] |= 1 << (id % 64)
		return
	}
	if s.high == nil {
		s.high = map[uint32]struct{}{}
	}
	s.high[id] = struct{}{}
}

// len returns the number of distinct ids added.
func (s *idSet) len() int {
	n := len(s.high)
	for _, word := range s.low {
		n += bits.OnesCount64(word)
	}
	return n
}

// WriteTable renders a fixed-width corpus table for the given
// workloads, one row each plus a totals row.
func WriteTable(out io.Writer, ws []*Workload) {
	fmt.Fprintf(out, "%-14s %8s %10s %12s %8s %8s %10s\n",
		"workload", "frames", "draws", "draws/frame", "VS", "PS", "scenes")
	totFrames, totDraws := 0, 0
	for _, w := range ws {
		s := Summarize(w)
		fmt.Fprintf(out, "%-14s %8d %10d %12.1f %8d %8d %10d\n",
			s.Name, s.Frames, s.Draws, s.DrawsPerFrame, s.UniqueVS, s.UniquePS, len(s.Scenes))
		totFrames += s.Frames
		totDraws += s.Draws
	}
	fmt.Fprintf(out, "%-14s %8d %10d\n", "TOTAL", totFrames, totDraws)
}

// ShaderUsage returns, for each pixel-shader id used by the workload,
// the number of draws binding it, sorted by descending use.
type ShaderUsage struct {
	ID    uint32
	Draws int
}

// PixelShaderUsage tabulates pixel-shader popularity across the
// workload — a quick view of how concentrated shader use is, which is
// what makes shader vectors discriminative.
func PixelShaderUsage(w *Workload) []ShaderUsage {
	counts := map[uint32]int{}
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			counts[uint32(w.Frames[fi].Draws[di].PS)]++
		}
	}
	out := make([]ShaderUsage, 0, len(counts))
	for id, n := range counts {
		out = append(out, ShaderUsage{ID: id, Draws: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Draws != out[j].Draws {
			return out[i].Draws > out[j].Draws
		}
		return out[i].ID < out[j].ID
	})
	return out
}
