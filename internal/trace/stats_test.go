package trace_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/shader"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tracetest"
)

func TestSummarize(t *testing.T) {
	w := tracetest.Tiny()
	s := trace.Summarize(w)
	if s.Name != "tiny" || s.Frames != 3 || s.Draws != 12 {
		t.Fatalf("summary = %+v", s)
	}
	if s.DrawsPerFrame != 4 {
		t.Errorf("DrawsPerFrame = %v", s.DrawsPerFrame)
	}
	if s.MinDrawsFrame != 4 || s.MaxDrawsFrame != 4 {
		t.Errorf("min/max draws = %d/%d", s.MinDrawsFrame, s.MaxDrawsFrame)
	}
	if s.UniqueVS != 2 || s.UniquePS != 2 {
		t.Errorf("unique shaders = %d VS, %d PS", s.UniqueVS, s.UniquePS)
	}
	if s.UniqueMaterials != 3 {
		t.Errorf("unique materials = %d", s.UniqueMaterials)
	}
	if len(s.Scenes) != 1 || s.Scenes[0] != "fixture" {
		t.Errorf("scenes = %v", s.Scenes)
	}
	if s.TotalVertices <= 0 || s.TotalPrimitives <= 0 {
		t.Error("totals not computed")
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	w := tracetest.Tiny()
	trace.WriteTable(&buf, []*trace.Workload{w, w})
	out := buf.String()
	if !strings.Contains(out, "tiny") || !strings.Contains(out, "TOTAL") {
		t.Errorf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "24") { // total draws across two copies
		t.Errorf("table missing total draws:\n%s", out)
	}
}

func TestPixelShaderUsage(t *testing.T) {
	w := tracetest.Tiny()
	usage := trace.PixelShaderUsage(w)
	if len(usage) != 2 {
		t.Fatalf("usage entries = %d", len(usage))
	}
	// Each frame: 2 draws ps.textured, 2 draws ps.flat -> tie broken by id.
	if usage[0].Draws < usage[1].Draws {
		t.Error("usage not sorted descending")
	}
	total := usage[0].Draws + usage[1].Draws
	if total != w.NumDraws() {
		t.Errorf("usage total %d != draws %d", total, w.NumDraws())
	}
}

// mapCounts is the map-based distinct count Summarize used before its
// id bitsets: the reference the bitset count must equal.
func mapCounts(w *trace.Workload) (vs, ps, mats int) {
	v, p, m := map[uint32]bool{}, map[uint32]bool{}, map[uint32]bool{}
	for fi := range w.Frames {
		for di := range w.Frames[fi].Draws {
			d := &w.Frames[fi].Draws[di]
			v[uint32(d.VS)] = true
			p[uint32(d.PS)] = true
			m[d.MaterialID] = true
		}
	}
	return len(v), len(p), len(m)
}

// TestSummarizeDistinctCountsMatchMaps holds the bitset id counts to
// the map-based reference on all three game profiles and on ids at the
// bitset's edges: 0, 1<<16 - 1 (last bitset id), 1<<16 (first map id)
// and the largest uint32, each used twice.
func TestSummarizeDistinctCountsMatchMaps(t *testing.T) {
	var ws []*trace.Workload
	for _, p := range synth.SuiteProfiles() {
		p.Frames = 24
		w, err := tracetest.CachedWorkload(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	edge := tracetest.Tiny()
	edgeIDs := []uint32{0, 1<<16 - 1, 1 << 16, math.MaxUint32}
	for fi := range edge.Frames {
		for di := range edge.Frames[fi].Draws {
			id := edgeIDs[(fi+di)%len(edgeIDs)]
			d := &edge.Frames[fi].Draws[di]
			d.VS, d.PS, d.MaterialID = shader.ID(id), shader.ID(edgeIDs[di%len(edgeIDs)]), id
		}
	}
	ws = append(ws, edge)
	for _, w := range ws {
		s := trace.Summarize(w)
		vs, ps, mats := mapCounts(w)
		if s.UniqueVS != vs || s.UniquePS != ps || s.UniqueMaterials != mats {
			t.Errorf("%s: distinct VS/PS/materials = %d/%d/%d, map reference %d/%d/%d",
				w.Name, s.UniqueVS, s.UniquePS, s.UniqueMaterials, vs, ps, mats)
		}
	}
	if s := trace.Summarize(edge); s.UniqueVS != 4 || s.UniqueMaterials != 4 {
		t.Errorf("edge ids: distinct VS %d, materials %d, want 4 each", s.UniqueVS, s.UniqueMaterials)
	}
}
