package core

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/tracetest"
)

// TestReportDeterministicWithObservability is the observability layer's
// contract: attaching a fully-armed obs.Run (debug logger, spans,
// metrics) must leave the Report byte-identical to an unobserved run.
// Timings and counts live only in the obs structures and the manifest —
// never in deterministic pipeline output.
func TestReportDeterministicWithObservability(t *testing.T) {
	p := detProfiles()[0]
	w, err := tracetest.CachedWorkload(p, 7)
	if err != nil {
		t.Fatal(err)
	}

	render := func(run *obs.Run) (*Report, []byte) {
		opt := DefaultOptions()
		opt.Workers = 4
		s, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunContext(run.Context(context.Background()), w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return rep, buf.Bytes()
	}

	refRep, refText := render(nil)

	run := obs.NewRun("test")
	run.Log = obs.NewLogger(io.Discard, obs.LevelDebug) // every log site fires
	obsRep, obsText := render(run)
	m := run.Finish()

	if !reflect.DeepEqual(obsRep, refRep) {
		t.Error("report differs between obs off and obs on")
	}
	if !bytes.Equal(obsText, refText) {
		t.Errorf("rendered report differs between obs off and obs on:\n--- off\n%s\n--- on\n%s", refText, obsText)
	}

	// The observed run must actually have observed something — a
	// passing comparison against a no-op instrument proves nothing.
	// The library pipeline owns three stages (validate, frame-pass,
	// validation-sweep); decode/render spans belong to the CLI and are
	// asserted in the subset3d manifest test.
	if len(m.Stages) < 3 {
		t.Fatalf("observed run recorded %d top-level stages, want >= 3", len(m.Stages))
	}
	if m.Metrics.Counters["subset.frames"] == 0 {
		t.Error("observed run recorded no subset.frames")
	}
	if m.Metrics.Counters["parallel.tasks"] == 0 {
		t.Error("observed run recorded no parallel.tasks")
	}
}

// TestObsStaysOutOfReport extends the leak guard: the Report type must
// not grow fields of obs types, which would make timings part of
// deterministic output.
func TestObsStaysOutOfReport(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var check func(ty reflect.Type, path string)
	check = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Array:
			check(ty.Elem(), path)
		case reflect.Map:
			check(ty.Key(), path)
			check(ty.Elem(), path)
		case reflect.Struct:
			if ty.PkgPath() == "repro/internal/obs" {
				t.Errorf("%s embeds obs type %s in the Report", path, ty)
				return
			}
			if seen[ty] {
				return
			}
			seen[ty] = true
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		}
	}
	check(reflect.TypeOf(Report{}), "Report")
}
