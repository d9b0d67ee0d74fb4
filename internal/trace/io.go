package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/shader"
	"repro/internal/traceerr"
)

// DefaultMaxDecodeBytes caps how much input ReadStream (and so Decode)
// will consume before rejecting it with traceerr.ErrTooLarge — a guard
// against hostile or garbage inputs that would otherwise be buffered
// without bound.
const DefaultMaxDecodeBytes int64 = 1 << 30 // 1 GiB

// cappedReader fails with traceerr.ErrTooLarge once more than max
// bytes have been read, and remembers that it did: decoders may rewrap
// the error, so callers check the flag rather than the chain.
type cappedReader struct {
	r        io.Reader
	left     int64
	exceeded bool
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		if !c.exceeded {
			// The budget is spent: the input fits only if it ends here.
			var probe [1]byte
			if n, err := io.ReadFull(c.r, probe[:]); n == 0 {
				return 0, err
			}
			c.exceeded = true
		}
		return 0, traceerr.ErrTooLarge
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

func (c *cappedReader) capErr(err error, max int64) error {
	if c.exceeded || errors.Is(err, traceerr.ErrTooLarge) {
		return fmt.Errorf("trace: input exceeds %d-byte decode cap: %w", max, traceerr.ErrTooLarge)
	}
	return err
}

// wire is the JSON (and legacy gob .trace) form of Workload: the
// header's fields around the frames, in the field order EncodeJSON has
// always written. The shader registry has unexported bookkeeping, so
// programs travel as a flat slice and the reader rebuilds the registry
// through Header.Shell.
type wire struct {
	Name          string
	Frames        []Frame
	Shaders       []shader.Program
	Textures      []Texture
	RenderTargets []RenderTarget
}

func (w *Workload) toWire() wire {
	h := HeaderOf(w)
	return wire{
		Name:          h.Name,
		Frames:        w.Frames,
		Shaders:       h.Shaders,
		Textures:      h.Textures,
		RenderTargets: h.RenderTargets,
	}
}

func (ww *wire) header() Header {
	return Header{
		Name:          ww.Name,
		Shaders:       ww.Shaders,
		Textures:      ww.Textures,
		RenderTargets: ww.RenderTargets,
	}
}

// decodeJSON decodes one JSON document into ww. JSON spells an empty
// list [] where the codec and gob decode none as nil; those lists are
// made nil, so a workload reads the same from every form.
func decodeJSON(in io.Reader, ww *wire) error {
	if err := json.NewDecoder(in).Decode(ww); err != nil {
		return err
	}
	ww.Textures, ww.RenderTargets = nilIfEmpty(ww.Textures), nilIfEmpty(ww.RenderTargets)
	for i := range ww.Shaders {
		ww.Shaders[i].Body = nilIfEmpty(ww.Shaders[i].Body)
	}
	for fi := range ww.Frames {
		draws := ww.Frames[fi].Draws
		for di := range draws {
			draws[di].Textures = nilIfEmpty(draws[di].Textures)
		}
	}
	return nil
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// classifyDecodeErr maps a gob or JSON failure onto the taxonomy:
// inputs that ran out are truncation, everything else is corruption.
func classifyDecodeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return traceerr.ErrTruncated
	}
	return traceerr.ErrCorruptRecord
}

// Encode writes the workload in the library's binary form, one stream
// container: Encode is EncodeStream.
func (w *Workload) Encode(out io.Writer) error { return EncodeStream(out, w) }

// Decode reads a workload in any form strictly: it is ReadStream
// without leniency, so the result is valid.
func Decode(in io.Reader) (*Workload, error) {
	w, _, err := ReadStream(in, ReaderOptions{})
	return w, err
}

// EncodeJSON writes the workload as indented JSON, for inspection and
// interchange with non-Go tooling. Every reader of a trace reads it
// back.
func (w *Workload) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(w.toWire()); err != nil {
		return fmt.Errorf("trace: JSON-encoding workload %q: %w", w.Name, err)
	}
	return nil
}
