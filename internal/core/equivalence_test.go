package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tracetest"
)

// Per-frame clustering has one exact path. A default run must stay
// byte-identical to the checked-in golden corpus at one worker and at
// four.
func TestExactModeByteIdenticalToGolden(t *testing.T) {
	for _, p := range detProfiles() {
		w, err := tracetest.CachedWorkload(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("%s-seed7.json", p.Name)))
		if err != nil {
			t.Fatalf("golden corpus missing (run -update first): %v", err)
		}
		for _, workers := range []int{1, 4} {
			opt := DefaultOptions()
			opt.Workers = workers
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenBytes(t, rep); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: report deviates from golden corpus", p.Name, workers)
			}
		}
	}
}
