package snapshot

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// record is the property-test payload: one value of every primitive the
// codec supports, plus every slice kind. quick generates random instances
// (including NaN-adjacent bit patterns via the uint64 fields reinterpreted
// as floats below).
type record struct {
	A  uint8
	B  uint32
	C  uint64
	D  int64
	E  int
	F  bool
	G  float64
	GB uint64 // reinterpreted as float bits: covers NaN payloads and ±Inf
	S  string
	U  []uint64
	X  []float64
	I  []int32
	N  []int
}

func (r record) encode(e *Encoder) {
	e.Tag(TagHeader)
	e.U8(r.A)
	e.U32(r.B)
	e.U64(r.C)
	e.I64(r.D)
	e.Int(r.E)
	e.Bool(r.F)
	e.F64(r.G)
	e.F64(math.Float64frombits(r.GB))
	e.String(r.S)
	e.U64s(r.U)
	e.F64s(r.X)
	e.I32s(r.I)
	e.Ints(r.N)
}

func (r *record) decode(d *Decoder) {
	d.Tag(TagHeader)
	r.A = d.U8()
	r.B = d.U32()
	r.C = d.U64()
	r.D = d.I64()
	r.E = d.Int()
	r.F = d.Bool()
	r.G = d.F64()
	r.GB = math.Float64bits(d.F64())
	r.S = d.String()
	d.U64sInto(r.U)
	r.X = d.F64s()
	d.I32sInto(r.I)
	r.N = d.Ints()
}

// TestRoundTripProperty is the codec's headline property: for arbitrary
// values, encode → decode → encode reproduces the identical byte sequence
// (so snapshot bytes are a pure function of state, which is what makes
// snapshot comparison meaningful).
func TestRoundTripProperty(t *testing.T) {
	prop := func(r record) bool {
		e1 := NewEncoder()
		r.encode(e1)
		d := NewDecoder(e1.Bytes())
		// The in-place readers decode into targets of the encoded shape.
		got := record{U: make([]uint64, len(r.U)), I: make([]int32, len(r.I))}
		got.decode(d)
		if d.Err() != nil {
			t.Logf("decode error: %v", d.Err())
			return false
		}
		if d.Remaining() != 0 {
			t.Logf("%d bytes left over", d.Remaining())
			return false
		}
		e2 := NewEncoder()
		got.encode(e2)
		return bytes.Equal(e1.Bytes(), e2.Bytes())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNonFiniteFloatsRoundTrip(t *testing.T) {
	vals := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8dead_beef0001), // NaN with payload
		math.Copysign(0, -1),                      // negative zero
	}
	e := NewEncoder()
	for _, v := range vals {
		e.F64(v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		got := d.F64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("value %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Header(Header{Kind: "session", Fingerprint: "cpm-default/seed=1"})
	h, err := NewDecoder(e.Bytes()).Header()
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != "session" || h.Fingerprint != "cpm-default/seed=1" {
		t.Errorf("header = %+v", h)
	}
}

func TestHeaderRejectsBadMagicAndVersion(t *testing.T) {
	if _, err := NewDecoder([]byte("not a snapshot")).Header(); err == nil {
		t.Error("bad magic accepted")
	}
	e := NewEncoder()
	e.U32(Magic)
	e.U32(Version + 1)
	e.Tag(TagHeader)
	e.String("x")
	e.String("y")
	if _, err := NewDecoder(e.Bytes()).Header(); err == nil {
		t.Error("future version accepted")
	}
}

func TestTagMismatch(t *testing.T) {
	e := NewEncoder()
	e.Tag(TagCache)
	d := NewDecoder(e.Bytes())
	d.Tag(TagThermal)
	if d.Err() == nil {
		t.Fatal("tag mismatch not detected")
	}
	if !strings.Contains(d.Err().Error(), "section tag") {
		t.Errorf("unhelpful error: %v", d.Err())
	}
}

// TestStickyError: after the first failure every read returns a zero value
// and the original error is preserved.
func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // fails: only 2 bytes
	first := d.Err()
	if first == nil {
		t.Fatal("truncated U64 read succeeded")
	}
	if v := d.U8(); v != 0 {
		t.Errorf("read after error returned %d, want 0", v)
	}
	if got := d.Err(); got != first {
		t.Errorf("error was overwritten: %v", got)
	}
}

// TestLengthPrefixBounded: a corrupt length prefix claiming more elements
// than bytes remain must error, not allocate gigabytes.
func TestLengthPrefixBounded(t *testing.T) {
	e := NewEncoder()
	e.U32(0xffffffff) // absurd element count, no payload
	for _, dec := range []func(*Decoder){
		func(d *Decoder) { d.U64sInto(make([]uint64, 2)) },
		func(d *Decoder) { d.F64s() },
		func(d *Decoder) { d.I32sInto(make([]int32, 2)) },
		func(d *Decoder) { d.Ints() },
		func(d *Decoder) { _ = d.String() },
	} {
		d := NewDecoder(e.Bytes())
		dec(d)
		if d.Err() == nil {
			t.Fatal("oversized length prefix accepted")
		}
	}
}

func TestBoolRejectsJunk(t *testing.T) {
	d := NewDecoder([]byte{7})
	d.Bool()
	if d.Err() == nil {
		t.Error("bool byte 7 accepted")
	}
}

func TestEmptySlicesRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U64s(nil)
	e.F64s([]float64{})
	d := NewDecoder(e.Bytes())
	d.U64sInto(nil)
	if got := d.F64s(); got != nil {
		t.Errorf("empty F64s decoded as %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestIntoReaders: the in-place readers decode into the caller's slice,
// refuse a length prefix that differs from it as a shape error, and report
// a prefix that matches but overruns the input as truncation.
func TestIntoReaders(t *testing.T) {
	e := NewEncoder()
	e.U64s([]uint64{1, 1 << 63, 3})
	e.I32s([]int32{-4, 5})
	d := NewDecoder(e.Bytes())
	u, i := make([]uint64, 3), make([]int32, 2)
	d.U64sInto(u)
	d.I32sInto(i)
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", err, d.Remaining())
	}
	if u[0] != 1 || u[1] != 1<<63 || u[2] != 3 || i[0] != -4 || i[1] != 5 {
		t.Errorf("decoded %v %v", u, i)
	}

	for _, n := range []int{2, 4} {
		d := NewDecoder(e.Bytes())
		d.U64sInto(make([]uint64, n))
		if err := d.Err(); !errors.Is(err, ErrShape) {
			t.Errorf("3 words into a target of %d: err %v, want a shape error", n, err)
		}
	}
	d = NewDecoder(e.Bytes()[:20])
	d.U64sInto(make([]uint64, 3))
	if err := d.Err(); err == nil || errors.Is(err, ErrShape) || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated words: err %v, want truncation", err)
	}
}

// TestBulkWritersMatchScalar pins the bulk slice writers to the byte
// layout of a length prefix followed by one scalar write per element.
func TestBulkWritersMatchScalar(t *testing.T) {
	u := []uint64{0, 1, 0xdeadbeef_01234567, ^uint64(0)}
	x := []float64{math.NaN(), math.Inf(-1), -0.0, 1.5}
	i32 := []int32{-1, 0, 1 << 30, -1 << 31}
	n := []int{-7, 0, 1 << 40}
	bulk := NewEncoderSize(3)
	bulk.U64s(u)
	bulk.F64s(x)
	bulk.I32s(i32)
	bulk.Ints(n)
	scalar := NewEncoder()
	scalar.U32(uint32(len(u)))
	for _, v := range u {
		scalar.U64(v)
	}
	scalar.U32(uint32(len(x)))
	for _, v := range x {
		scalar.F64(v)
	}
	scalar.U32(uint32(len(i32)))
	for _, v := range i32 {
		scalar.U32(uint32(v))
	}
	scalar.U32(uint32(len(n)))
	for _, v := range n {
		scalar.Int(v)
	}
	if !bytes.Equal(bulk.Bytes(), scalar.Bytes()) {
		t.Errorf("bulk writers encode\n%x\nscalar writes encode\n%x", bulk.Bytes(), scalar.Bytes())
	}
}

func TestShapeErrorf(t *testing.T) {
	err := ShapeErrorf("want %d tags, got %d", 4, 2)
	if !strings.Contains(err.Error(), "shape mismatch") || !strings.Contains(err.Error(), "want 4 tags, got 2") {
		t.Errorf("err = %v", err)
	}
}
