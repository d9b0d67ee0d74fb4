// Stream format v2 — the fault-tolerant frame-stream container.
//
// The v1 format (read-only now) is a bare gob stream: no magic,
// no framing, no checksums. One flipped byte anywhere poisons the gob
// decoder state and aborts the rest of the capture. At fleet scale —
// hundreds of captures streamed off disks and networks — truncation
// and bit rot are routine, so v2 makes every record independently
// verifiable and skippable:
//
//	container := magic "3DWS" | version byte (2) | record*
//	record    := sync [4]byte | kind byte | payloadLen uint32le |
//	             crc32le(payload) | payload
//
// kind 1 carries the stream Header, kind 2 one Frame; each payload is
// a self-contained gob encoding (type descriptors re-sent per record —
// a few hundred bytes of overhead that buys the ability to decode any
// record in isolation). A reader that finds a bad sync marker, an
// implausible length, a checksum mismatch or a truncated tail can scan
// forward for the next sync marker and re-lock onto the record stream,
// accounting for every byte it had to discard.
//
// StreamReader reads both versions: the magic is sniffed and absent on
// v1 streams, which fall back to the legacy gob path (fail-fast; gob's
// stateful wire format cannot be resynced).
package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/traceerr"
)

// StreamVersion is the container version written by NewStreamEncoder.
const StreamVersion = 2

// StreamMagic is the byte string that opens a stream container,
// exported so ingestion layers can sniff the format from a peek at the
// first bytes before committing to a reader.
const StreamMagic = "3DWS"

// DefaultMaxRecordBytes caps a single record's payload. Lengths above
// the cap are treated as corruption rather than allocation requests.
const DefaultMaxRecordBytes = 64 << 20

var (
	streamMagic = []byte(StreamMagic)
	recSync     = []byte{0xA9, 0x3D, 0x5C, 0xE2}
)

const (
	recHeaderLen       = 13 // sync(4) + kind(1) + len(4) + crc(4)
	recKindHeader byte = 1
	recKindFrame  byte = 2
)

// streamWriterV2 frames gob payloads into checksummed records.
type streamWriterV2 struct {
	w       io.Writer
	scratch bytes.Buffer
}

func newStreamWriterV2(out io.Writer, h Header) (*streamWriterV2, error) {
	sw := &streamWriterV2{w: out}
	magic := make([]byte, len(streamMagic)+1)
	copy(magic, streamMagic)
	magic[len(streamMagic)] = StreamVersion
	if _, err := out.Write(magic); err != nil {
		return nil, fmt.Errorf("trace: writing stream magic: %w", err)
	}
	if err := sw.writeRecord(recKindHeader, h); err != nil {
		return nil, fmt.Errorf("trace: encoding stream header: %w", err)
	}
	return sw, nil
}

func (sw *streamWriterV2) writeRecord(kind byte, v any) error {
	sw.scratch.Reset()
	if err := gob.NewEncoder(&sw.scratch).Encode(v); err != nil {
		return err
	}
	payload := sw.scratch.Bytes()
	var hdr [recHeaderLen]byte
	copy(hdr[:4], recSync)
	hdr[4] = kind
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(payload))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := sw.w.Write(payload)
	return err
}

func (sw *streamWriterV2) writeFrame(f *Frame) error {
	return sw.writeRecord(recKindFrame, f)
}

// recordScanner maintains a sliding window over the input and extracts
// records from it. In lenient mode a malformed region is scanned
// byte-by-byte for the next sync marker; in strict mode the first
// deviation is returned as a typed error.
type recordScanner struct {
	r     io.Reader
	buf   []byte
	off   int64 // absolute offset of buf[0]
	rerr  error // sticky error from the underlying reader
	max   int   // payload size cap
	chunk []byte
}

func (s *recordScanner) fill(n int) {
	if s.chunk == nil {
		s.chunk = make([]byte, 64<<10)
	}
	for len(s.buf) < n && s.rerr == nil {
		m, err := s.r.Read(s.chunk)
		s.buf = append(s.buf, s.chunk[:m]...)
		if err != nil {
			s.rerr = err
		}
	}
}

func (s *recordScanner) discard(n int) {
	s.buf = s.buf[n:]
	s.off += int64(n)
}

// next extracts one record. It returns io.EOF at a clean end of input.
// In lenient mode, bytes skipped while regaining record lock are
// accounted in diag; one RecordsResynced increment per lost-lock
// episode.
func (s *recordScanner) next(lenient bool, diag *traceerr.Diagnostics) (byte, []byte, error) {
	resyncing := false
	skip := func(n int) {
		if !resyncing {
			resyncing = true
			diag.RecordsResynced++
		}
		diag.BytesDiscarded += int64(n)
		s.discard(n)
	}
	for {
		s.fill(recHeaderLen)
		if len(s.buf) == 0 {
			if s.rerr == nil || errors.Is(s.rerr, io.EOF) {
				return 0, nil, io.EOF
			}
			return 0, nil, s.rerr
		}
		if len(s.buf) < recHeaderLen {
			// Tail too short to hold any record.
			if !lenient {
				return 0, nil, &traceerr.RecordError{
					Kind: traceerr.ErrTruncated, Record: -1, Frame: -1, Offset: s.off,
					Cause: fmt.Errorf("%d trailing bytes, record header needs %d", len(s.buf), recHeaderLen),
				}
			}
			skip(len(s.buf))
			continue
		}
		if !bytes.Equal(s.buf[:4], recSync) {
			if !lenient {
				return 0, nil, &traceerr.RecordError{
					Kind: traceerr.ErrCorruptRecord, Record: -1, Frame: -1, Offset: s.off,
					Cause: errors.New("record boundary marker not found"),
				}
			}
			if i := bytes.Index(s.buf, recSync); i >= 0 {
				skip(i)
			} else {
				// Keep a marker-length tail: the marker may straddle
				// the window edge.
				skip(len(s.buf) - (len(recSync) - 1))
				if s.rerr != nil {
					skip(len(s.buf))
				}
			}
			continue
		}
		kind := s.buf[4]
		plen := binary.LittleEndian.Uint32(s.buf[5:9])
		crc := binary.LittleEndian.Uint32(s.buf[9:13])
		if (kind != recKindHeader && kind != recKindFrame) || int64(plen) > int64(s.max) {
			if !lenient {
				return 0, nil, &traceerr.RecordError{
					Kind: traceerr.ErrCorruptRecord, Record: -1, Frame: -1, Offset: s.off,
					Cause: fmt.Errorf("implausible record header (kind %d, length %d)", kind, plen),
				}
			}
			skip(1) // false or damaged marker: rescan from the next byte
			continue
		}
		total := recHeaderLen + int(plen)
		s.fill(total)
		if len(s.buf) < total {
			if !lenient {
				return 0, nil, &traceerr.RecordError{
					Kind: traceerr.ErrTruncated, Record: -1, Frame: -1, Offset: s.off,
					Cause: fmt.Errorf("record needs %d bytes, %d remain", total, len(s.buf)),
				}
			}
			skip(1)
			continue
		}
		payload := s.buf[recHeaderLen:total]
		if crc32.ChecksumIEEE(payload) != crc {
			if !lenient {
				return 0, nil, &traceerr.RecordError{
					Kind: traceerr.ErrCorruptRecord, Record: -1, Frame: -1, Offset: s.off,
					Cause: errors.New("payload checksum mismatch"),
				}
			}
			skip(1)
			continue
		}
		out := make([]byte, len(payload))
		copy(out, payload)
		s.discard(total)
		return kind, out, nil
	}
}

// ReaderOptions configures a StreamReader.
type ReaderOptions struct {
	// Lenient makes the reader skip damaged records and invalid frames
	// (accounted in Diagnostics) instead of failing fast. The stream
	// header itself must still parse — without the resource tables no
	// frame can be interpreted.
	Lenient bool

	// MaxRecordBytes caps a single record payload (0 means
	// DefaultMaxRecordBytes). Larger lengths are treated as corruption.
	MaxRecordBytes int
}

// StreamReader reads frame streams in either format version with
// optional graceful degradation. Construct with NewStreamReader.
type StreamReader struct {
	opt     ReaderOptions
	shell   *Workload
	checker drawChecker // over shell, built once with it
	version int
	diag    traceerr.Diagnostics
	frames  int // frames delivered
	records int // records consumed (v2)

	sc     *recordScanner // v2 path
	dec    *gob.Decoder   // v1 path
	v1dead bool
}

// NewStreamReader sniffs the format version, reads and validates the
// stream header, and returns a reader positioned at the first frame.
func NewStreamReader(in io.Reader, opt ReaderOptions) (*StreamReader, error) {
	if opt.MaxRecordBytes <= 0 {
		opt.MaxRecordBytes = DefaultMaxRecordBytes
	}
	sc := &recordScanner{r: in, max: opt.MaxRecordBytes}
	sc.fill(len(streamMagic) + 1)
	r := &StreamReader{opt: opt}
	if len(sc.buf) >= len(streamMagic)+1 && bytes.Equal(sc.buf[:len(streamMagic)], streamMagic) {
		if ver := sc.buf[len(streamMagic)]; int(ver) != StreamVersion {
			return nil, &traceerr.RecordError{
				Kind: traceerr.ErrVersionMismatch, Record: -1, Frame: -1, Offset: int64(len(streamMagic)),
				Cause: fmt.Errorf("stream version %d, this build reads v1 and v%d", ver, StreamVersion),
			}
		}
		sc.discard(len(streamMagic) + 1)
		r.version = 2
		r.sc = sc
		kind, payload, err := sc.next(opt.Lenient, &r.diag)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = &traceerr.RecordError{Kind: traceerr.ErrTruncated, Record: 0, Frame: -1, Offset: sc.off,
					Cause: errors.New("stream ends before header record")}
			}
			return nil, fmt.Errorf("trace: decoding stream header: %w", r.atRecord(err))
		}
		r.records++
		if kind != recKindHeader {
			return nil, fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
				Kind: traceerr.ErrCorruptRecord, Record: 0, Frame: -1, Offset: sc.off,
				Cause: fmt.Errorf("first record has kind %d, want header", kind)})
		}
		var h Header
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h); err != nil {
			return nil, fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
				Kind: traceerr.ErrCorruptRecord, Record: 0, Frame: -1, Offset: sc.off, Cause: err})
		}
		shell, err := h.Shell()
		if err != nil {
			return nil, err
		}
		r.shell, r.checker = shell, shell.newDrawChecker()
		return r, nil
	}

	// No magic: legacy v1 raw gob. Replay the sniffed bytes.
	r.version = 1
	dec := gob.NewDecoder(io.MultiReader(bytes.NewReader(sc.buf), in))
	var h Header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
			Kind: classifyDecodeErr(err), Record: 0, Frame: -1, Offset: -1, Cause: err})
	}
	shell, err := h.Shell()
	if err != nil {
		return nil, err
	}
	r.shell, r.checker = shell, shell.newDrawChecker()
	r.dec = dec
	return r, nil
}

// classifyDecodeErr maps a gob failure onto the taxonomy: inputs that
// ran out are truncation, everything else is corruption.
func classifyDecodeErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return traceerr.ErrTruncated
	}
	return traceerr.ErrCorruptRecord
}

// atRecord stamps the current record index onto a scanner error.
func (r *StreamReader) atRecord(err error) error {
	var re *traceerr.RecordError
	if errors.As(err, &re) && re.Record < 0 {
		re.Record = r.records
	}
	return err
}

// Shell returns the frameless workload the stream's frames belong to.
// Callers must not append frames to it; it exists to resolve resources.
func (r *StreamReader) Shell() *Workload { return r.shell }

// Version reports the container version being read (1 or 2).
func (r *StreamReader) Version() int { return r.version }

// FramesRead returns how many frames have been delivered.
func (r *StreamReader) FramesRead() int { return r.frames }

// Diagnostics returns the degradation accounting so far. In strict
// mode it stays zero.
func (r *StreamReader) Diagnostics() traceerr.Diagnostics { return r.diag }

// NextFrame returns the next valid frame, or io.EOF after the last.
// Strict mode fails on the first damaged record or invalid frame with
// an error classified by the traceerr taxonomy; lenient mode skips the
// damage, accounts for it in Diagnostics, and keeps going.
func (r *StreamReader) NextFrame() (Frame, error) {
	for {
		var f Frame
		if r.version == 2 {
			kind, payload, err := r.sc.next(r.opt.Lenient, &r.diag)
			if errors.Is(err, io.EOF) {
				return Frame{}, io.EOF
			}
			if err != nil {
				return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, r.atRecord(err))
			}
			rec := r.records
			r.records++
			if kind != recKindFrame {
				// A header record mid-stream: tolerated leniently as a
				// skipped record (e.g. two captures concatenated).
				if !r.opt.Lenient {
					return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
						Kind: traceerr.ErrCorruptRecord, Record: rec, Frame: r.frames, Offset: r.sc.off,
						Cause: fmt.Errorf("unexpected record kind %d mid-stream", kind)})
				}
				r.diag.RecordsResynced++
				r.diag.BytesDiscarded += int64(recHeaderLen + len(payload))
				continue
			}
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
				if !r.opt.Lenient {
					return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
						Kind: traceerr.ErrCorruptRecord, Record: rec, Frame: r.frames, Offset: r.sc.off, Cause: err})
				}
				r.diag.FramesSkipped++
				continue
			}
		} else {
			if r.v1dead {
				return Frame{}, io.EOF
			}
			if err := r.dec.Decode(&f); err != nil {
				if errors.Is(err, io.EOF) {
					return Frame{}, io.EOF
				}
				if !r.opt.Lenient {
					return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
						Kind: classifyDecodeErr(err), Record: -1, Frame: r.frames, Offset: -1, Cause: err})
				}
				// gob's wire format is stateful: after a decode error
				// the rest of a v1 stream is unrecoverable.
				r.v1dead = true
				r.diag.FramesSkipped++
				return Frame{}, io.EOF
			}
		}

		if len(f.Draws) == 0 {
			if !r.opt.Lenient {
				return Frame{}, fmt.Errorf("trace: streamed frame %d has no draws: %w", r.frames, &traceerr.RecordError{
					Kind: traceerr.ErrInvalidFrame, Record: r.records - 1, Frame: r.frames, Offset: -1})
			}
			r.diag.FramesSkipped++
			continue
		}
		if r.opt.Lenient {
			dropped, _ := r.checker.sanitize(&f)
			r.diag.DrawsDropped += dropped
			if len(f.Draws) == 0 {
				r.diag.FramesSkipped++
				continue
			}
		} else {
			for di := range f.Draws {
				if err := r.checker.check(&f.Draws[di]); err != nil {
					return Frame{}, fmt.Errorf("trace: streamed frame %d draw %d: %w", r.frames, di, &traceerr.RecordError{
						Kind: traceerr.ErrInvalidFrame, Record: r.records - 1, Frame: r.frames, Offset: -1, Cause: err})
				}
			}
		}
		r.frames++
		return f, nil
	}
}
