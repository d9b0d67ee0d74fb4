package trace

import (
	"fmt"
	"io"

	"repro/internal/shader"
	"repro/internal/traceerr"
)

// Header is a workload's frame-independent part: identity plus the
// resource tables every draw references. It travels once at the front
// of a frame stream.
type Header struct {
	Name          string
	Shaders       []shader.Program
	Textures      []Texture
	RenderTargets []RenderTarget
}

// HeaderOf extracts the header of an in-memory workload.
func HeaderOf(w *Workload) Header {
	progs := w.Shaders.Programs()
	flat := make([]shader.Program, len(progs))
	for i, p := range progs {
		flat[i] = *p
	}
	return Header{
		Name:          w.Name,
		Shaders:       flat,
		Textures:      w.Textures,
		RenderTargets: w.RenderTargets,
	}
}

// Shell materializes a frameless Workload from the header — the
// resource context streaming consumers (extractors, simulators) bind
// against while frames flow past.
func (h Header) Shell() (*Workload, error) {
	progs := make([]*shader.Program, len(h.Shaders))
	for i := range h.Shaders {
		p := h.Shaders[i]
		progs[i] = &p
	}
	reg, err := shader.RestoreRegistry(progs)
	if err != nil {
		return nil, fmt.Errorf("trace: stream header: %w", err)
	}
	if h.Name == "" {
		return nil, fmt.Errorf("trace: stream header has empty name")
	}
	return &Workload{
		Name:          h.Name,
		Shaders:       reg,
		Textures:      h.Textures,
		RenderTargets: h.RenderTargets,
	}, nil
}

// StreamEncoder writes a workload as header + one record per frame, so
// arbitrarily long captures encode in bounded memory. Streams are
// written in container version StreamVersion (checksummed,
// resyncable); older versions are read-only.
type StreamEncoder struct {
	w      *streamWriter
	frames int
}

// NewStreamEncoder writes the container magic and the stream header
// record immediately.
func NewStreamEncoder(out io.Writer, h Header) (*StreamEncoder, error) {
	w, err := newStreamWriter(out, &h)
	if err != nil {
		return nil, err
	}
	return &StreamEncoder{w: w}, nil
}

// WriteFrame appends one frame record.
func (e *StreamEncoder) WriteFrame(f *Frame) error {
	if err := e.w.writeRecord(recKindFrame, func(b []byte) []byte { return appendFrame(b, f) }); err != nil {
		return fmt.Errorf("trace: encoding frame %d: %w", e.frames, err)
	}
	e.frames++
	return nil
}

// Frames returns the number of frames written so far.
func (e *StreamEncoder) Frames() int { return e.frames }

// EncodeStream writes an entire in-memory workload as one stream
// container — the binary form of every trace (Workload.Encode is
// EncodeStream).
func EncodeStream(out io.Writer, w *Workload) error {
	enc, err := NewStreamEncoder(out, HeaderOf(w))
	if err != nil {
		return err
	}
	for i := range w.Frames {
		if err := enc.WriteFrame(&w.Frames[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadStream reads a whole trace, in any form NewStreamReader sniffs,
// into a workload, strict or lenient as opt says: the one
// whole-workload read behind Decode, the CLIs and the cache's workload
// store. It refuses inputs beyond DefaultMaxDecodeBytes with
// traceerr.ErrTooLarge. The reader checks every draw as it arrives, so
// the workload needs no second Validate pass.
func ReadStream(in io.Reader, opt ReaderOptions) (*Workload, traceerr.Diagnostics, error) {
	return readCapped(in, opt, DefaultMaxDecodeBytes)
}

// readCapped is ReadStream under a cap of maxBytes.
func readCapped(in io.Reader, opt ReaderOptions, maxBytes int64) (*Workload, traceerr.Diagnostics, error) {
	capped := &cappedReader{r: in, left: maxBytes}
	r, err := NewStreamReader(capped, opt)
	if err != nil {
		return nil, traceerr.Diagnostics{}, capped.capErr(err, maxBytes)
	}
	w, diag, err := r.ReadAll()
	if err != nil {
		return nil, diag, capped.capErr(err, maxBytes)
	}
	return w, diag, nil
}

// ReadAll reads the remaining frames into a workload over the shell and
// returns it with the reader's diagnostics. It adds the one check a
// frame-by-frame reader cannot make: at least one frame must survive.
func (r *StreamReader) ReadAll() (*Workload, traceerr.Diagnostics, error) {
	var frames []Frame
	for {
		f, err := r.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, r.diag, err
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		return nil, r.diag, fmt.Errorf("trace: stream yields no usable frames: %w", traceerr.ErrInvalidFrame)
	}
	w := *r.shell
	w.Frames = frames
	return &w, r.diag, nil
}
