// Package snapshot is the serialization substrate of the
// checkpoint/resume subsystem: a compact varint codec (Writer/Reader)
// and a versioned, checksummed envelope (Seal/Open) around opaque
// payloads. It is a leaf package — every state-bearing package
// (sim, workload, monitor, resinfo, core) encodes its own state with
// the codec, and the core composes the sections into one sealed
// snapshot.
//
// Design constraints:
//
//   - Determinism: equal state encodes to equal bytes. The codec has
//     no maps, no pointers, no ambient inputs; callers must iterate
//     collections in a canonical order.
//   - Robustness: Open rejects corrupt or version-skewed envelopes
//     with structured errors (ErrCorrupt, ErrVersion), and the Reader
//     latches the first decode failure instead of panicking, so a
//     decoder over arbitrary bytes degrades to an error, never a
//     crash (FuzzDecodeSnapshot gates this).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// ErrCorrupt marks snapshots that fail structural validation: bad
// magic, length mismatch, checksum mismatch, truncated or
// out-of-range payload fields. Test with errors.Is.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion marks snapshots whose format version this build cannot
// read (written by a newer build, or an unknown kind). Test with
// errors.Is.
var ErrVersion = errors.New("snapshot: unsupported version")

// corruptf builds an ErrCorrupt-wrapped error with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Writer accumulates a snapshot payload. The zero value is ready to
// use.
type Writer struct {
	buf []byte
	// start is where the payload begins in buf: a writer from
	// NewSealWriter keeps the bytes before it as room for the envelope
	// header.
	start int
}

// NewSealWriter returns a writer whose buffer holds about sizeHint
// payload bytes without growing, and keeps room ahead of the payload
// for the envelope header of kind, so that Seal wraps the payload in
// place instead of copying it.
func NewSealWriter(kind string, sizeHint int) Writer {
	room := maxHeader(kind)
	return Writer{buf: make([]byte, room, room+sizeHint+4), start: room}
}

// Bytes returns the encoded payload.
func (w *Writer) Bytes() []byte { return w.buf[w.start:] }

// U64 appends an unsigned varint, byte for byte what
// binary.AppendUvarint writes. It appends in place, so a value below
// 128 — the bulk of every payload — costs one append and no call.
func (w *Writer) U64(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// I64 appends a zigzag-encoded signed varint, byte-equal to
// binary.AppendVarint.
func (w *Writer) I64(v int64) {
	w.U64(uint64(v<<1) ^ uint64(v>>63))
}

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends one byte (0 or 1).
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends a float64 as its IEEE 754 bit pattern (varint-packed;
// exact round trip, including NaN payloads and signed zero).
func (w *Writer) F64(v float64) {
	w.U64(math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Reader decodes a snapshot payload. The first malformed field
// latches an ErrCorrupt-wrapped error; every subsequent read returns
// zero values, so decoders can run to completion and check Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left undecoded.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail latches the first error and consumes the rest of the input,
// so the varint fast paths see no more bytes either.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(format, args...)
		r.off = len(r.data)
	}
}

// U64 decodes an unsigned varint, taking a one-byte fast path for
// values below 128.
func (r *Reader) U64() uint64 {
	if i := r.off; i < len(r.data) {
		if b := r.data[i]; b < 0x80 {
			r.off = i + 1
			return uint64(b)
		}
	}
	return r.uvarint()
}

// uvarint is U64's multi-byte path.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// I64 decodes a zigzag-encoded signed varint; it accepts exactly the
// inputs binary.Varint accepts.
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int decodes an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool decodes one byte as a bool; any value other than 0 or 1 is
// corruption.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.data) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	b := r.data[r.off]
	r.off++
	if b > 1 {
		r.fail("invalid bool byte %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

// F64 decodes a float64 bit pattern.
func (r *Reader) F64() float64 {
	return math.Float64frombits(r.U64())
}

// Str decodes a length-prefixed string. The length is validated
// against the remaining bytes before any allocation.
func (r *Reader) Str() string {
	n := r.Int()
	if r.err != nil {
		return ""
	}
	if n < 0 || n > r.Remaining() {
		r.fail("string length %d exceeds %d remaining bytes", n, r.Remaining())
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// Count decodes a collection length and validates it against the
// remaining payload (each element takes at least one byte), so a
// corrupt count can never drive an attacker-sized allocation.
func (r *Reader) Count() int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.Remaining() {
		r.fail("collection length %d exceeds %d remaining bytes", n, r.Remaining())
		return 0
	}
	return n
}

// Close verifies the payload was consumed exactly; trailing garbage
// is corruption.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return corruptf("%d trailing bytes after payload", r.Remaining())
	}
	return nil
}

// Envelope layout (all integers varint unless noted):
//
//	magic   [6]byte  "DRSNAP"
//	kind    Str      payload kind, e.g. "dreamsim-core"
//	version U64      format version of the payload
//	length  U64      payload byte count
//	payload [length]byte
//	crc32   [4]byte  little-endian IEEE CRC of everything above
var magic = []byte("DRSNAP")

// maxHeader bounds the envelope header of kind: magic, kind, version
// and payload length.
func maxHeader(kind string) int { return len(magic) + len(kind) + 3*binary.MaxVarintLen64 }

// appendHeader appends the envelope header of an n-byte payload.
func appendHeader(dst []byte, kind string, version uint64, n int) []byte {
	w := Writer{buf: append(dst, magic...)}
	w.Str(kind)
	w.U64(version)
	w.U64(uint64(n))
	return w.buf
}

// Seal wraps payload in a versioned, checksummed envelope.
func Seal(kind string, version uint64, payload []byte) []byte {
	out := appendHeader(make([]byte, 0, maxHeader(kind)+len(payload)+4), kind, version, len(payload))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// Seal returns the bytes Seal(kind, version, w.Bytes()) returns. A
// writer from NewSealWriter for kind is sealed in place, without a
// second buffer; the writer must not be used afterwards.
func (w *Writer) Seal(kind string, version uint64) []byte {
	payload := w.Bytes()
	var room [64]byte
	hdr := appendHeader(room[:0], kind, version, len(payload))
	if len(hdr) > w.start {
		return Seal(kind, version, payload)
	}
	sealed := w.buf[w.start-len(hdr):]
	copy(sealed, hdr)
	return binary.LittleEndian.AppendUint32(sealed, crc32.ChecksumIEEE(sealed))
}

// Open validates an envelope and returns its payload. It fails with
// ErrCorrupt on any structural damage (magic, length, checksum) and
// with ErrVersion when the kind does not match or the version is
// newer than maxVersion — the "written by a newer build" case a
// clear error must distinguish from corruption.
func Open(data []byte, kind string, maxVersion uint64) (payload []byte, version uint64, err error) {
	if len(data) < len(magic)+4 {
		return nil, 0, corruptf("%d bytes is shorter than any envelope", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, 0, corruptf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	for i := range magic {
		if body[i] != magic[i] {
			return nil, 0, corruptf("bad magic %q", body[:len(magic)])
		}
	}
	r := NewReader(body[len(magic):])
	gotKind := r.Str()
	version = r.U64()
	n := r.U64()
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	if gotKind != kind {
		return nil, 0, fmt.Errorf("%w: snapshot kind %q, this build reads %q", ErrVersion, gotKind, kind)
	}
	if version > maxVersion {
		return nil, 0, fmt.Errorf("%w: snapshot format v%d, this build reads up to v%d (written by a newer build?)",
			ErrVersion, version, maxVersion)
	}
	if n != uint64(r.Remaining()) {
		return nil, 0, corruptf("payload length %d, envelope holds %d", n, r.Remaining())
	}
	return body[len(body)-r.Remaining():], version, nil
}
