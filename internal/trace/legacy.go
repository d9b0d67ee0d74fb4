// Legacy inputs — read-only decoding of the gob forms older builds
// wrote, all in this one file:
//
//   - gob .trace files: one gob value of the wire form;
//   - v2 containers: today's record framing around gob payloads (the
//     workload store's older .s3dw entries hold these);
//   - v1 streams: a bare gob stream of a Header, then one Frame per
//     value, with no magic, framing or checksums.
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

// decodeGobTrace reads a gob .trace: strict validates it, lenient
// repairs it. Undecodable gob classifies onto the taxonomy.
func decodeGobTrace(in io.Reader, lenient bool) (*Workload, traceerr.Diagnostics, error) {
	var ww wire
	if err := gob.NewDecoder(in).Decode(&ww); err != nil {
		return nil, traceerr.Diagnostics{}, fmt.Errorf("%w: %v", classifyDecodeErr(err), err)
	}
	if lenient {
		return fromWireLenient(ww)
	}
	w, err := fromWire(ww)
	return w, traceerr.Diagnostics{}, err
}

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
	dead bool
}

// openV1 makes the v1 stream in the reader's source and reads its
// header.
func (r *StreamReader) openV1(in io.Reader) error {
	r.version = 1
	r.v1 = &v1Stream{dec: gob.NewDecoder(in)}
	var h Header
	if err := r.v1.dec.Decode(&h); err != nil {
		return fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
			Kind: classifyDecodeErr(err), Record: 0, Frame: -1, Offset: -1, Cause: err})
	}
	if err := r.bind(h); err != nil {
		return fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
			Kind: traceerr.ErrCorruptRecord, Record: 0, Frame: -1, Offset: -1, Cause: err})
	}
	return nil
}

// nextV1 decodes the next v1 frame into f, returning io.EOF at the end.
// Strict mode fails on a decode error; lenient mode counts the frame
// skipped and ends the stream there.
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
	if !r.opt.Lenient {
		return fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
			Kind: classifyDecodeErr(err), Record: -1, Frame: r.frames, Offset: -1, Cause: err})
	}
	r.v1.dead = true
	r.diag.FramesSkipped++
	return io.EOF
}
