package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/shader"
	"repro/internal/traceerr"
)

// DefaultMaxDecodeBytes caps how much input Decode/DecodeJSON will
// consume before rejecting it with traceerr.ErrTooLarge — a guard
// against hostile or garbage inputs that would otherwise be buffered
// without bound. DecodeLimited/DecodeJSONLimited take an explicit cap.
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

// wire is the JSON (and legacy gob) form of Workload. The shader
// registry has unexported bookkeeping, so programs travel as a flat
// slice and the registry is rebuilt on decode.
type wire struct {
	Name          string
	Frames        []Frame
	Shaders       []shader.Program
	Textures      []Texture
	RenderTargets []RenderTarget
}

func (w *Workload) toWire() wire {
	progs := w.Shaders.Programs()
	flat := make([]shader.Program, len(progs))
	for i, p := range progs {
		flat[i] = *p
	}
	return wire{
		Name:          w.Name,
		Frames:        w.Frames,
		Shaders:       flat,
		Textures:      w.Textures,
		RenderTargets: w.RenderTargets,
	}
}

// restoreWire rebuilds the in-memory workload without judging its
// content: the strict path validates afterwards, the lenient path
// sanitizes instead.
func restoreWire(ww wire) (*Workload, error) {
	progs := make([]*shader.Program, len(ww.Shaders))
	for i := range ww.Shaders {
		progs[i] = &ww.Shaders[i]
	}
	reg, err := shader.RestoreRegistry(progs)
	if err != nil {
		return nil, fmt.Errorf("trace: restoring shaders: %w", err)
	}
	return &Workload{
		Name:          ww.Name,
		Frames:        ww.Frames,
		Shaders:       reg,
		Textures:      ww.Textures,
		RenderTargets: ww.RenderTargets,
	}, nil
}

func fromWire(ww wire) (*Workload, error) {
	w, err := restoreWire(ww)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("trace: decoded workload invalid: %w", err)
	}
	return w, nil
}

// fromWireLenient restores and then repairs: invalid draws and
// unusable frames are dropped (accounted in the diagnostics) instead
// of rejecting the whole workload. Structural damage — no shader
// registry, nothing usable surviving — still fails.
func fromWireLenient(ww wire) (*Workload, traceerr.Diagnostics, error) {
	w, err := restoreWire(ww)
	if err != nil {
		return nil, traceerr.Diagnostics{}, err
	}
	diag, err := w.Sanitize()
	if err != nil {
		return nil, diag, err
	}
	return w, diag, nil
}

// Encode writes the workload in the library's binary form, one stream
// container: Encode is EncodeStream.
func (w *Workload) Encode(out io.Writer) error { return EncodeStream(out, w) }

// Decode reads a workload in binary form, refusing inputs beyond
// DefaultMaxDecodeBytes with traceerr.ErrTooLarge. The result is
// valid: the container reader checks every draw.
func Decode(in io.Reader) (*Workload, error) {
	return DecodeLimited(in, DefaultMaxDecodeBytes)
}

// DecodeLimited is Decode with an explicit input size cap in bytes
// (<= 0 means DefaultMaxDecodeBytes).
func DecodeLimited(in io.Reader, maxBytes int64) (*Workload, error) {
	w, _, err := decodeBinary(in, maxBytes, false)
	return w, err
}

// DecodeLenient reads a workload in binary form and repairs it instead
// of rejecting it: damaged records are resynced past and invalid draws
// and unusable frames dropped, with the accounting returned — the
// ingestion mode a server exposes to hostile uploads. maxBytes caps the
// input (<= 0 means DefaultMaxDecodeBytes). Input with no readable
// header (an unknown format, a broken shader table) or with nothing
// usable surviving still fails.
func DecodeLenient(in io.Reader, maxBytes int64) (*Workload, traceerr.Diagnostics, error) {
	return decodeBinary(in, maxBytes, true)
}

// decodeBinary reads the binary form under a size cap: a stream
// container, sniffed by its magic, through ReadStream; anything else
// as a legacy gob .trace.
func decodeBinary(in io.Reader, maxBytes int64, lenient bool) (*Workload, traceerr.Diagnostics, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxDecodeBytes
	}
	capped := &cappedReader{r: in, left: maxBytes}
	head := make([]byte, len(StreamMagic))
	n, _ := io.ReadFull(capped, head)
	src := io.MultiReader(bytes.NewReader(head[:n]), capped)
	var (
		w    *Workload
		diag traceerr.Diagnostics
		err  error
	)
	if string(head[:n]) == StreamMagic {
		w, diag, err = ReadStream(src, ReaderOptions{Lenient: lenient})
	} else {
		w, diag, err = decodeGobTrace(src, lenient)
	}
	if err != nil {
		return nil, diag, fmt.Errorf("trace: decoding workload: %w", capped.capErr(err, maxBytes))
	}
	return w, diag, nil
}

// DecodeJSONLenient is DecodeLenient for the JSON encoding.
func DecodeJSONLenient(in io.Reader, maxBytes int64) (*Workload, traceerr.Diagnostics, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxDecodeBytes
	}
	capped := &cappedReader{r: in, left: maxBytes}
	var ww wire
	if err := json.NewDecoder(capped).Decode(&ww); err != nil {
		return nil, traceerr.Diagnostics{}, fmt.Errorf("trace: JSON-decoding workload: %w", lenientDecodeErr(capped, err, maxBytes))
	}
	return fromWireLenient(ww)
}

// lenientDecodeErr classifies a lenient decoder's failure onto the
// taxonomy: size-cap hits stay ErrTooLarge, inputs that ran out are
// ErrTruncated, everything else is ErrCorruptRecord — so ingestion
// layers map any undecodable upload to a typed rejection.
func lenientDecodeErr(capped *cappedReader, err error, maxBytes int64) error {
	if cerr := capped.capErr(err, maxBytes); cerr != err {
		return cerr
	}
	return fmt.Errorf("%w: %v", classifyDecodeErr(err), err)
}

// classifyDecodeErr maps a gob or JSON failure onto the taxonomy:
// inputs that ran out are truncation, everything else is corruption.
func classifyDecodeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return traceerr.ErrTruncated
	}
	return traceerr.ErrCorruptRecord
}

// EncodeJSON writes the workload as indented JSON, for inspection and
// interchange with non-Go tooling.
func (w *Workload) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(w.toWire()); err != nil {
		return fmt.Errorf("trace: JSON-encoding workload %q: %w", w.Name, err)
	}
	return nil
}

// DecodeJSON reads a workload in JSON format and validates it,
// refusing inputs beyond DefaultMaxDecodeBytes with
// traceerr.ErrTooLarge.
func DecodeJSON(in io.Reader) (*Workload, error) {
	return DecodeJSONLimited(in, DefaultMaxDecodeBytes)
}

// DecodeJSONLimited is DecodeJSON with an explicit input size cap in
// bytes (<= 0 means DefaultMaxDecodeBytes).
func DecodeJSONLimited(in io.Reader, maxBytes int64) (*Workload, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxDecodeBytes
	}
	capped := &cappedReader{r: in, left: maxBytes}
	var ww wire
	if err := json.NewDecoder(capped).Decode(&ww); err != nil {
		return nil, fmt.Errorf("trace: JSON-decoding workload: %w", capped.capErr(err, maxBytes))
	}
	return fromWire(ww)
}
