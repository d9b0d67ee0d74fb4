package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracetest"
)

// FuzzDecode ensures the decoder never panics and never returns an
// invalid workload, no matter how the input is mangled, and that
// whatever it accepts, in any form, re-encodes as a container that
// decodes to the same workload. testdata/fuzz/FuzzDecode holds crafted
// payloads and every form of a trace beyond these seeds (see
// decodeCases).
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := tracetest.Tiny().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a gob stream at all"))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte{}, valid...)
	for i := 10; i < len(mutated); i += 97 {
		mutated[i] ^= 0xff
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("Decode returned invalid workload: %v", err)
		}
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			t.Fatalf("re-encoding an accepted workload: %v", err)
		}
		again, err := trace.Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded workload rejected: %v", err)
		}
		if !reflect.DeepEqual(again, w) {
			t.Fatal("round trip changed an accepted workload")
		}
	})
}

// FuzzStreamDecode does the same for the frame-stream format.
func FuzzStreamDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, tracetest.Tiny()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:40])
	f.Add([]byte("junk"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := trace.NewStreamReader(bytes.NewReader(data), trace.ReaderOptions{})
		if err != nil {
			return
		}
		for i := 0; i < 100; i++ {
			if _, err := dec.NextFrame(); err != nil {
				return // EOF or rejection both fine
			}
		}
	})
}

// FuzzStreamV2Resync feeds mutated container bytes to the resyncing
// lenient reader: it must never panic, never loop forever, and every
// frame it delivers must still pass full validation against the shell.
func FuzzStreamV2Resync(f *testing.F) {
	var buf bytes.Buffer
	if err := trace.EncodeStream(&buf, tracetest.Tiny()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, 0, byte(0))
	f.Add(valid, 20, byte(0xff))             // damage inside the header record
	f.Add(valid, len(valid)/2, byte(0x01))   // damage mid-stream
	f.Add(valid[:len(valid)-30], 0, byte(0)) // truncated tail
	f.Add([]byte("3DWS\x02junkjunkjunk"), 3, byte(7))
	doubled := append(append([]byte{}, valid...), valid...) // concatenated captures
	f.Add(doubled, 0, byte(0))

	f.Fuzz(func(t *testing.T, data []byte, pos int, mask byte) {
		mutated := append([]byte{}, data...)
		if len(mutated) > 0 {
			mutated[abs(pos)%len(mutated)] ^= mask
		}
		r, err := trace.NewStreamReader(bytes.NewReader(mutated), trace.ReaderOptions{Lenient: true})
		if err != nil {
			return // header unrecoverable: rejecting is fine
		}
		shell := r.Shell()
		for {
			fr, err := r.NextFrame()
			if err != nil {
				// Lenient reading only ever ends in io.EOF, in every form.
				if err != io.EOF {
					t.Fatalf("lenient %s reader returned %v", r.Format(), err)
				}
				return
			}
			check := *shell
			check.Frames = []trace.Frame{fr}
			if err := check.Validate(); err != nil {
				t.Fatalf("reader delivered invalid frame: %v", err)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
