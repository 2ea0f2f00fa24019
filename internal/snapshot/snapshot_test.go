package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	u64s := []uint64{0, 1, 127, 128, 1<<32 - 1, math.MaxUint64}
	i64s := []int64{0, 1, -1, 63, -64, 1 << 40, math.MinInt64, math.MaxInt64}
	f64s := []float64{0, math.Copysign(0, -1), 1.5, -2.75, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "x", "dreamsim-core", strings.Repeat("é", 100)}
	for _, v := range u64s {
		w.U64(v)
	}
	for _, v := range i64s {
		w.I64(v)
	}
	for _, v := range f64s {
		w.F64(v)
	}
	for _, v := range strs {
		w.Str(v)
	}
	w.Bool(true)
	w.Bool(false)
	w.Int(-42)

	r := NewReader(w.Bytes())
	for _, v := range u64s {
		if got := r.U64(); got != v {
			t.Fatalf("U64 round trip: got %d, want %d", got, v)
		}
	}
	for _, v := range i64s {
		if got := r.I64(); got != v {
			t.Fatalf("I64 round trip: got %d, want %d", got, v)
		}
	}
	for _, v := range f64s {
		if got := r.F64(); got != v {
			t.Fatalf("F64 round trip: got %v, want %v", got, v)
		}
	}
	for _, v := range strs {
		if got := r.Str(); got != v {
			t.Fatalf("Str round trip: got %q, want %q", got, v)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int round trip: got %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestF64NaNRoundTrip(t *testing.T) {
	var w Writer
	w.F64(math.NaN())
	r := NewReader(w.Bytes())
	if got := r.F64(); !math.IsNaN(got) {
		t.Fatalf("NaN decoded as %v", got)
	}
}

func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{0x80}) // truncated uvarint
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("truncated uvarint not rejected")
	}
	first := r.Err()
	r.I64()
	r.Bool()
	r.Str()
	if r.Err() != first {
		t.Fatal("later reads replaced the latched error")
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("latched error %v is not ErrCorrupt", r.Err())
	}
}

func TestBoolRejectsNonBinaryByte(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestStrAndCountBoundAllocations(t *testing.T) {
	var w Writer
	w.Int(1 << 40) // length far beyond the payload
	data := w.Bytes()

	r := NewReader(data)
	if r.Str() != "" || r.Err() == nil {
		t.Fatal("oversized string length accepted")
	}
	r = NewReader(data)
	if r.Count() != 0 || r.Err() == nil {
		t.Fatal("oversized collection length accepted")
	}

	var neg Writer
	neg.Int(-1)
	r = NewReader(neg.Bytes())
	if r.Count() != 0 || r.Err() == nil {
		t.Fatal("negative collection length accepted")
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	var w Writer
	w.U64(7)
	w.U64(9)
	r := NewReader(w.Bytes())
	r.U64()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes gave %v, want ErrCorrupt", err)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("state bytes")
	sealed := Seal("test-kind", 3, payload)
	got, version, err := Open(sealed, "test-kind", 5)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if version != 3 || string(got) != string(payload) {
		t.Fatalf("Open gave v%d %q", version, got)
	}
	if _, _, err := Open(Seal("k", 1, nil), "k", 1); err != nil {
		t.Fatalf("empty payload: %v", err)
	}
}

func TestEnvelopeVersionSkew(t *testing.T) {
	sealed := Seal("test-kind", 9, []byte("future"))
	if _, _, err := Open(sealed, "test-kind", 8); !errors.Is(err, ErrVersion) {
		t.Fatalf("newer version gave %v, want ErrVersion", err)
	}
	if _, _, err := Open(sealed, "other-kind", 9); !errors.Is(err, ErrVersion) {
		t.Fatalf("kind mismatch gave %v, want ErrVersion", err)
	}
}

func TestEnvelopeCorruption(t *testing.T) {
	sealed := Seal("test-kind", 1, []byte("payload payload payload"))

	// Truncations at every length.
	for n := 0; n < len(sealed); n++ {
		if _, _, err := Open(sealed[:n], "test-kind", 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes gave %v, want ErrCorrupt", n, err)
		}
	}
	// Single bit flips anywhere — including inside the CRC trailer —
	// must be caught.
	for i := 0; i < len(sealed); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), sealed...)
			mut[i] ^= 1 << bit
			if _, _, err := Open(mut, "test-kind", 1); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit flip at byte %d bit %d gave %v, want ErrCorrupt", i, bit, err)
			}
		}
	}
}

// varintCases are the signed values around the one-byte boundary and
// the extremes, followed by random values of every encoded length.
func varintCases() []int64 {
	vals := []int64{0, 1, -1, -65, -64, 63, 64, 127, 128, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		v := int64(rng.Uint64() >> rng.Intn(64))
		if rng.Intn(2) == 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	return vals
}

// TestVarintMatchesEncodingBinary: the Writer's fast paths produce
// exactly the bytes of binary.AppendVarint and binary.AppendUvarint,
// and the Reader decodes every value back.
func TestVarintMatchesEncodingBinary(t *testing.T) {
	vals := varintCases()
	var w Writer
	var want []byte
	for _, v := range vals {
		w.I64(v)
		want = binary.AppendVarint(want, v)
		w.U64(uint64(v))
		want = binary.AppendUvarint(want, uint64(v))
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatal("Writer bytes differ from encoding/binary")
	}
	r := NewReader(w.Bytes())
	for _, v := range vals {
		if got := r.I64(); got != v {
			t.Fatalf("I64 round trip: got %d, want %d", got, v)
		}
		if got := r.U64(); got != uint64(v) {
			t.Fatalf("U64 round trip: got %d, want %d", got, uint64(v))
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedVarintLatches: every proper prefix of a multi-byte
// varint is rejected with ErrCorrupt, and the Reader stays latched.
func TestTruncatedVarintLatches(t *testing.T) {
	for _, v := range varintCases() {
		enc := binary.AppendVarint(nil, v)
		for n := 0; n < len(enc); n++ {
			r := NewReader(enc[:n])
			if got := r.I64(); got != 0 || !errors.Is(r.Err(), ErrCorrupt) {
				t.Fatalf("%d-byte prefix of %d: got %d, err %v", n, v, got, r.Err())
			}
			if r.U64() != 0 || r.Bool() || r.Err() == nil {
				t.Fatalf("%d-byte prefix of %d: reader did not stay latched", n, v)
			}
		}
	}
	// An eleventh byte overflows a uint64 in both decoders.
	long := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	if r := NewReader(long); r.U64() != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatal("overlong uvarint accepted")
	}
}

// TestSealWriterSealsInPlace: a writer from NewSealWriter seals to the
// bytes Seal builds, without reallocating the buffer it was sized for.
func TestSealWriterSealsInPlace(t *testing.T) {
	for _, kind := range []string{"", "dreamsim-core", strings.Repeat("k", 200)} {
		w := NewSealWriter(kind, 64)
		for i := 0; i < 20; i++ {
			w.Int(i * 1000)
		}
		want := Seal(kind, 7, w.Bytes())
		got := w.Seal(kind, 7)
		if !bytes.Equal(got, want) {
			t.Fatalf("kind %q: sealed in place to different bytes", kind)
		}
		if &got[:cap(got)][cap(got)-1] != &w.buf[:cap(w.buf)][cap(w.buf)-1] {
			t.Fatalf("kind %q: Seal copied the payload", kind)
		}
	}
	var zero Writer
	zero.Str("payload")
	if got, want := zero.Seal("k", 1), Seal("k", 1, zero.Bytes()); !bytes.Equal(got, want) {
		t.Fatal("zero Writer sealed to different bytes")
	}
}
