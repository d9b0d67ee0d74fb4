// Legacy inputs — read-only decoding of the gob forms older builds
// wrote, all in this one file:
//
//   - gob .trace files: one gob value of the wire form;
//   - v2 containers: today's record framing around gob payloads (the
//     workload store's older .s3dw entries hold these);
//   - v1 streams: a bare gob stream of a Header, then one Frame per
//     value, with no magic, framing or checksums.
//
// A gob .trace and a v1 stream read through one branch: the first gob
// value decodes into the wire form, which a .trace fills with its
// frames and a v1 Header leaves without any; a v1 stream's frames then
// follow as further values.
//
// Nothing writes these forms any more. testdata/tiny.gob.trace,
// tiny.v2.stream and tiny.v1.stream pin that they stay readable.
package trace

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/traceerr"
)

// decodeGobHeader and decodeGobFrame are the v2 record payload codec.
func decodeGobHeader(p []byte) (Header, error) {
	var h Header
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&h)
	return h, err
}

func decodeGobFrame(p []byte, f *Frame) error {
	return gob.NewDecoder(bytes.NewReader(p)).Decode(f)
}

// v1Stream is the decoder state of a v1 stream. gob's wire format is
// stateful, so after a decode error the rest of the stream is lost.
type v1Stream struct {
	dec  *gob.Decoder
	src  *sourceErr // under dec, to tell a failing source from damage
	dead bool
}

// sourceErr remembers the first error other than io.EOF its reader
// returned.
type sourceErr struct {
	r   io.Reader
	err error
}

func (s *sourceErr) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF && s.err == nil {
		s.err = err
	}
	return n, err
}

// decodeGob decodes the first gob value of in into ww. When it carries
// no frames it is a v1 stream's header, and the reader goes on to read
// the stream's frames.
func (r *StreamReader) decodeGob(in io.Reader, ww *wire) error {
	src := &sourceErr{r: in}
	dec := gob.NewDecoder(src)
	if err := dec.Decode(ww); err != nil {
		return err
	}
	if len(ww.Frames) == 0 {
		r.version = 1
		r.v1 = &v1Stream{dec: dec, src: src}
	}
	return nil
}

// nextV1 decodes the next v1 frame into f, returning io.EOF at the end.
// Strict mode fails on a decode error; lenient mode counts the frame
// skipped and ends the stream there, unless the source itself failed
// (a size cap, an I/O error), which fails either mode, as it does a
// container.
func (r *StreamReader) nextV1(f *Frame) error {
	if r.v1.dead {
		return io.EOF
	}
	err := r.v1.dec.Decode(f)
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) {
		return io.EOF
	}
	if !r.opt.Lenient || r.v1.src.err != nil {
		return fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
			Kind: classifyDecodeErr(err), Record: -1, Frame: r.frames, Offset: -1, Cause: err})
	}
	r.v1.dead = true
	r.diag.FramesSkipped++
	return io.EOF
}
