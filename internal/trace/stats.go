package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/dcmath"
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
	s := Summary{Name: w.Name, Frames: len(w.Frames)}
	ids := new([3]idSet) // VS, PS, materials
	sceneSeen := map[string]bool{}
	perFrame := make([]float64, 0, len(w.Frames))
	for fi := range w.Frames {
		f := &w.Frames[fi]
		if !sceneSeen[f.Scene] {
			sceneSeen[f.Scene] = true
			s.Scenes = append(s.Scenes, f.Scene)
		}
		n := len(f.Draws)
		s.Draws += n
		perFrame = append(perFrame, float64(n))
		if s.MinDrawsFrame == 0 || n < s.MinDrawsFrame {
			s.MinDrawsFrame = n
		}
		if n > s.MaxDrawsFrame {
			s.MaxDrawsFrame = n
		}
		for di := range f.Draws {
			d := &f.Draws[di]
			ids[0].add(uint32(d.VS))
			ids[1].add(uint32(d.PS))
			ids[2].add(d.MaterialID)
			s.TotalVertices += d.TotalVertices()
			s.TotalPrimitives += d.TotalPrimitives()
		}
	}
	s.DrawsPerFrame = dcmath.Mean(perFrame)
	s.UniqueVS = ids[0].len()
	s.UniquePS = ids[1].len()
	s.UniqueMaterials = ids[2].len()
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
