// Stream container — the one binary form of a trace.
//
// A capture is one container, whether it is a .trace file, a .stream
// file, an upload or a workload-store entry:
//
//	container := magic "3DWS" | version byte (3) | record*
//	record    := sync [4]byte | kind byte | payloadLen uint32le |
//	             crc32le(payload) | payload
//
// kind 1 carries the stream Header, kind 2 one Frame, each payload in
// the hand-written codec of codec.go, so every record decodes in
// isolation. At fleet scale — hundreds of captures streamed off disks
// and networks — truncation and bit rot are routine, so every record is
// independently verifiable and skippable: a reader that finds a bad sync
// marker, an implausible length, a checksum mismatch or a truncated tail
// can scan forward for the next sync marker and re-lock onto the record
// stream, accounting for every byte it had to discard.
//
// StreamReader is the one decoder of a trace, whatever its form. It
// sniffs the first bytes once: the magic is a container; a '{' is a
// JSON document of the whole workload (what EncodeJSON writes);
// anything else is one of legacy.go's gob forms, a gob .trace or a v1
// stream (bare gob, no magic; fail-fast, since gob's stateful wire
// format cannot be resynced). It also reads v2 containers, this framing
// around gob payloads. Every form's header binds through Header.Shell
// and every frame passes the same strict check or lenient repair.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/traceerr"
)

// StreamVersion is the container version written by NewStreamEncoder.
const StreamVersion = 3

// StreamMagic is the byte string that opens a stream container.
// NewStreamReader's sniff is the only one: ingestion layers hand any
// trace to it rather than peek at the bytes themselves.
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

// streamWriter frames codec payloads into checksummed records.
type streamWriter struct {
	w   io.Writer
	buf []byte // reused record buffer; holds the magic until the header record goes out with it
}

func newStreamWriter(out io.Writer, h *Header) (*streamWriter, error) {
	sw := &streamWriter{w: out, buf: append([]byte(StreamMagic), StreamVersion)}
	if err := sw.writeRecord(recKindHeader, func(b []byte) []byte { return appendHeader(b, h) }); err != nil {
		return nil, fmt.Errorf("trace: encoding stream header: %w", err)
	}
	return sw, nil
}

// writeRecord frames the payload appendPayload appends, after any bytes
// already pending in the buffer, and writes it all with one Write.
func (sw *streamWriter) writeRecord(kind byte, appendPayload func([]byte) []byte) error {
	start := len(sw.buf)
	b := append(sw.buf, recSync...)
	b = append(b, kind, 0, 0, 0, 0, 0, 0, 0, 0)
	b = appendPayload(b)
	payload := b[start+recHeaderLen:]
	binary.LittleEndian.PutUint32(b[start+5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+9:], crc32.ChecksumIEEE(payload))
	sw.buf = b[:0]
	_, err := sw.w.Write(b)
	return err
}

// scanChunk is the least buffer room a recordScanner reads into.
const scanChunk = 64 << 10

// recordScanner maintains a sliding window over the input and extracts
// records from it. In lenient mode a malformed region is scanned
// byte-by-byte for the next sync marker; in strict mode the first
// deviation is returned as a typed error.
type recordScanner struct {
	r    io.Reader
	mem  []byte // the window's backing array
	buf  []byte // unconsumed input, a suffix of mem's filled part
	off  int64  // absolute offset of buf[0]
	rerr error  // sticky error from the underlying reader
	max  int    // payload size cap
}

// fill reads until buf holds n bytes or the input ends. When the room
// after the unconsumed bytes runs short it moves them to the front of
// the window, or to one twice their size, so the window grows with the
// bytes actually read, never with a length field's claim.
func (s *recordScanner) fill(n int) {
	for len(s.buf) < n && s.rerr == nil {
		if cap(s.buf)-len(s.buf) < scanChunk {
			if need := 2*len(s.buf) + scanChunk; cap(s.mem) < need {
				s.mem = make([]byte, need)
			}
			s.buf = s.mem[:copy(s.mem, s.buf)]
		}
		m, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+m]
		if err != nil {
			s.rerr = err
		}
	}
}

func (s *recordScanner) discard(n int) {
	s.buf = s.buf[n:]
	s.off += int64(n)
}

// cut is the cause of a record cut short: why, and the source's own
// error when a failing source (a body cap, an I/O error), not the end
// of input, cut it, so a strict read reports what a lenient one does.
func (s *recordScanner) cut(why error) error {
	if s.rerr == nil || errors.Is(s.rerr, io.EOF) {
		return why
	}
	return fmt.Errorf("%v: %w", why, s.rerr)
}

// next extracts one record. The payload aliases the scanner's window
// and is valid until the next call. It returns io.EOF at a clean end
// of input. In lenient mode, bytes skipped while regaining record lock
// are accounted in diag; one RecordsResynced increment per lost-lock
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
					Cause: s.cut(fmt.Errorf("%d trailing bytes, record header needs %d", len(s.buf), recHeaderLen)),
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
					Cause: s.cut(fmt.Errorf("record needs %d bytes, %d remain", total, len(s.buf))),
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
		s.discard(total)
		return kind, payload, nil
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

// StreamReader reads a trace in any of its forms, frame by frame, with
// optional graceful degradation. Construct with NewStreamReader.
type StreamReader struct {
	opt     ReaderOptions
	shell   *Workload
	checker drawChecker // over shell, built once with it
	format  string
	version int
	diag    traceerr.Diagnostics
	frames  int // frames delivered
	records int // records consumed (v2 and later)

	pending     []Frame                        // frames of a whole-workload value, delivered first
	sc          *recordScanner                 // v2 and later
	decodeFrame func(p []byte, f *Frame) error // the version's payload codec
	v1          *v1Stream                      // legacy v1
}

// NewStreamReader sniffs the trace's form, reads and validates its
// header, and returns a reader positioned at the first frame.
func NewStreamReader(in io.Reader, opt ReaderOptions) (*StreamReader, error) {
	if opt.MaxRecordBytes <= 0 {
		opt.MaxRecordBytes = DefaultMaxRecordBytes
	}
	sc := &recordScanner{r: in, max: opt.MaxRecordBytes}
	sc.fill(len(streamMagic) + 1)
	r := &StreamReader{opt: opt, format: "stream"}
	if len(sc.buf) < len(streamMagic)+1 || !bytes.Equal(sc.buf[:len(streamMagic)], streamMagic) {
		// No magic: a whole-workload value, JSON or gob, which carries
		// the header and maybe the frames. Replay the sniffed bytes.
		rest := io.MultiReader(bytes.NewReader(sc.buf), in)
		var ww wire
		var err error
		if len(sc.buf) > 0 && sc.buf[0] == '{' {
			r.format, err = "json", decodeJSON(rest, &ww)
		} else {
			r.format, err = "gob", r.decodeGob(rest, &ww)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
				Kind: classifyDecodeErr(err), Record: 0, Frame: -1, Offset: -1, Cause: err})
		}
		if err := r.bind(ww.header()); err != nil {
			return nil, fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
				Kind: traceerr.ErrCorruptRecord, Record: 0, Frame: -1, Offset: -1, Cause: err})
		}
		r.pending = ww.Frames
		return r, nil
	}
	decodeHdr := decodeHeader
	ver := sc.buf[len(streamMagic)]
	switch ver {
	case StreamVersion:
		r.decodeFrame = decodeFrame
	case 2:
		decodeHdr, r.decodeFrame = decodeGobHeader, decodeGobFrame
	default:
		return nil, &traceerr.RecordError{
			Kind: traceerr.ErrVersionMismatch, Record: -1, Frame: -1, Offset: int64(len(streamMagic)),
			Cause: fmt.Errorf("stream version %d, this build reads v1 to v%d", ver, StreamVersion),
		}
	}
	r.version = int(ver)
	sc.discard(len(streamMagic) + 1)
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
	h, err := decodeHdr(payload)
	if err == nil {
		err = r.bind(h)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: decoding stream header: %w", &traceerr.RecordError{
			Kind: traceerr.ErrCorruptRecord, Record: 0, Frame: -1, Offset: sc.off, Cause: err})
	}
	return r, nil
}

// bind makes h's resource tables the context frames are checked
// against.
func (r *StreamReader) bind(h Header) error {
	shell, err := h.Shell()
	if err != nil {
		return err
	}
	r.shell, r.checker = shell, shell.newDrawChecker()
	return nil
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

// Version reports the stream version being read: 1 to StreamVersion,
// or 0 for a whole-workload value (JSON or a gob .trace).
func (r *StreamReader) Version() int { return r.version }

// Format names the form the reader sniffed: "stream" for a container,
// "json", or "gob" for the legacy gob forms.
func (r *StreamReader) Format() string { return r.format }

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
		switch {
		case len(r.pending) > 0:
			f, r.pending = r.pending[0], r.pending[1:]
		case r.v1 != nil:
			if err := r.nextV1(&f); err != nil {
				return Frame{}, err
			}
		case r.sc == nil:
			return Frame{}, io.EOF
		default:
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
			if err := r.decodeFrame(payload, &f); err != nil {
				if !r.opt.Lenient {
					return Frame{}, fmt.Errorf("trace: decoding frame %d: %w", r.frames, &traceerr.RecordError{
						Kind: traceerr.ErrCorruptRecord, Record: rec, Frame: r.frames, Offset: r.sc.off, Cause: err})
				}
				r.diag.FramesSkipped++
				continue
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
			r.diag.DrawsDropped += r.checker.sanitize(&f)
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
