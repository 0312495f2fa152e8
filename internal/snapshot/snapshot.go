// Package snapshot is a versioned, deterministic, dependency-free binary
// codec for checkpointing simulator state. Every state-bearing package in
// the stack (caches, workload generators, thermal RC state, controllers,
// the engine session) implements a pair of methods against this package:
//
//	Snapshot(e *snapshot.Encoder)          // append my state
//	Restore(d *snapshot.Decoder) error     // read it back, validating shape
//
// Design rules, in priority order:
//
//  1. Deterministic bytes: the same state always encodes to the same byte
//     sequence. All integers are fixed-width little-endian; floats are raw
//     IEEE-754 bits (NaN and ±Inf round-trip exactly); map-backed state
//     must be emitted in sorted key order by its owner.
//  2. Corrupt input is an error, never a panic: the Decoder carries a
//     sticky error, returns zero values once it is set, and bounds every
//     length prefix against the bytes actually remaining, so truncated or
//     hostile inputs cannot drive large allocations or out-of-range reads.
//  3. Structure is checked, not trusted: sections open with a Tag the
//     decoder verifies, and restorers validate decoded slice lengths
//     against the geometry of the object being restored. A snapshot only
//     restores into a structurally identical, freshly constructed target.
//
// The file format is a fixed header (magic, format version, kind and
// fingerprint strings identifying what was captured) followed by nested
// tagged sections. There is no backward-compatibility machinery: a version
// bump invalidates old snapshots, which is the honest contract for a
// research simulator whose state layout changes with the code.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Magic opens every snapshot file ("CPMS" in little-endian byte order).
const Magic uint32 = 0x534d5043

// Version is the format version; bump on any layout change.
// Version 2: the PIC section grew an adaptive-mode presence flag (plus the
// RLS estimator state when set), and the CPM section a cache-signal latch.
// Version 3: the chip section carries a per-island identity block —
// technology node/variant plus each island's core class and DVFS-table
// shape — validated on restore, so a snapshot cannot silently restore
// into a chip with different tables.
// Version 4: every chip steps compute cores over a record source. The chip
// section lost its per-core kind byte and per-island shared L2, and gained
// a sampler presence flag (plus the sampler a New chip owns); sampling
// cores no longer carry an instruction count, and the replay-core section
// is gone.
// Version 5: the MaxBIPS runner section keeps only its kind and interval
// counter; its primed flag and epoch power and BIPS sums, which the
// static-table planner never read, are gone.
// Version 6: a cache section no longer carries signature words (Restore
// rebuilds them from the tags) and carries prefetch marks only when a line
// has been marked; two-way caches keep their tags in MRU order with no
// LRU order word.
const Version uint32 = 6

// Section tags. Every composite object's Snapshot opens with one, and the
// matching Restore verifies it — a cheap structural checksum that turns
// "decoded garbage into the wrong fields" into an immediate error.
const (
	TagHeader uint32 = 0xC0DE0000 + iota
	TagRand
	TagPID
	TagPIC
	TagPhaseGen
	TagStreamGen
	TagCache
	TagBanked
	TagPrefetcher
	TagHierarchy
	TagThermal
	TagMem
	TagNoC
	TagIsland
	TagVariation
	TagCore
	TagChip
	TagGPM
	TagPolicy
	TagCPM
	TagRunner
	TagSession
	TagSummary
	TagDeterminism
	TagGolden
	TagComputeCore
	TagSampler
)

// Header identifies what a snapshot captured, so a restore can refuse a
// file that was written by a different producer or configuration.
type Header struct {
	// Kind names the captured object ("session", "chip", ...).
	Kind string
	// Fingerprint is a producer-chosen configuration identity (scenario
	// name, seed, geometry); Restore sites compare it against the
	// fingerprint of the target they are restoring into.
	Fingerprint string
}

// Encoder appends a deterministic binary encoding to an in-memory buffer.
// The zero value is not usable; construct with NewEncoder. Encoding cannot
// fail: all methods are infallible appends.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderSize returns an empty encoder whose buffer starts with room for
// n bytes, so an encoding of known size (a checkpoint the size of the
// previous one, say) is built in one allocation.
func NewEncoderSize(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal buffer; further encoding may grow (and re-allocate) it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 as its raw IEEE-754 bits, so NaN payloads and
// signed infinities round-trip bit-exactly.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Tag opens a section.
func (e *Encoder) Tag(t uint32) { e.U32(t) }

// words grows the buffer once for a length prefix of n and n elements of
// size bytes each, writes the prefix, and returns the elements' bytes.
func (e *Encoder) words(n, size int) []byte {
	e.U32(uint32(n))
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n*size)[:at+n*size]
	return e.buf[at:]
}

// U64s appends a length-prefixed []uint64.
func (e *Encoder) U64s(v []uint64) {
	b := e.words(len(v), 8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// F64s appends a length-prefixed []float64 (raw bits per element).
func (e *Encoder) F64s(v []float64) {
	b := e.words(len(v), 8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// I32s appends a length-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	b := e.words(len(v), 4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

// Ints appends a length-prefixed []int (int64 per element).
func (e *Encoder) Ints(v []int) {
	b := e.words(len(v), 8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// Blob appends a length-prefixed opaque byte slice — a nested encoding
// carried verbatim, e.g. a checkpoint body covered by an integrity digest.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Header writes the file header (magic, version, kind, fingerprint).
func (e *Encoder) Header(h Header) {
	e.U32(Magic)
	e.U32(Version)
	e.Tag(TagHeader)
	e.String(h.Kind)
	e.String(h.Fingerprint)
}

// Decoder reads the Encoder's format back. Errors are sticky: after the
// first failure every subsequent read returns a zero value and Err()
// reports the original cause, so restore code can decode a whole section
// and check once. Construct with NewDecoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b (not copied; the caller must not mutate it while
// decoding).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// Fail puts the decoder into its sticky error state with a shape error, for
// callers that detect an implausible decoded value (a count that cannot fit
// in the remaining bytes, say) outside the primitive readers. The first
// error wins, as with intrinsic decoding failures.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = ShapeErrorf(format, args...)
	}
}

// need reports whether n more bytes are available, failing if not.
func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < n {
		d.fail("truncated input: need %d bytes at offset %d, have %d", n, d.off, d.Remaining())
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	b := d.buf[d.off:]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	b := d.buf[d.off:]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	d.off += 8
	return v
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as int64.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a bool, rejecting bytes other than 0 and 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.fail("invalid bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// F64 reads a float64 from raw bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string. The length prefix is bounded by
// the bytes remaining, so a corrupt prefix cannot drive a huge allocation.
func (d *Decoder) String() string {
	n := int(d.U32())
	if d.err != nil {
		return ""
	}
	if n > d.Remaining() {
		d.fail("string length %d exceeds %d remaining bytes at offset %d", n, d.Remaining(), d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Blob reads a length-prefixed opaque byte slice written by Encoder.Blob.
// The returned slice aliases the decoder's buffer; copy before mutating.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n > d.Remaining() {
		d.fail("blob length %d exceeds %d remaining bytes at offset %d", n, d.Remaining(), d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// count reads a slice length prefix and bounds it by the remaining bytes
// at elemSize bytes per element.
func (d *Decoder) count(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*elemSize > d.Remaining() {
		d.fail("slice length %d (x%d bytes) exceeds %d remaining bytes at offset %d",
			n, elemSize, d.Remaining(), d.off)
		return 0
	}
	return n
}

// Tag reads a section tag and verifies it.
func (d *Decoder) Tag(want uint32) {
	at := d.off
	got := d.U32()
	if d.err == nil && got != want {
		d.fail("section tag %#x at offset %d, want %#x", got, at, want)
	}
}

// into reads a slice length prefix that must equal n, the length of the
// caller's target, and returns the n elements' bytes (size bytes each).
// A different length is a shape error; too few bytes left is truncation.
func (d *Decoder) into(n, size int) ([]byte, bool) {
	at := d.off
	got := int(d.U32())
	if d.err != nil {
		return nil, false
	}
	if got != n {
		d.Fail("slice length %d at offset %d, target holds %d", got, at, n)
		return nil, false
	}
	if !d.need(n * size) {
		return nil, false
	}
	b := d.buf[d.off : d.off+n*size]
	d.off += n * size
	return b, true
}

// U64sInto reads a length-prefixed []uint64 written by Encoder.U64s
// straight into dst, whose length the prefix must equal. On error dst may
// be left partly written.
func (d *Decoder) U64sInto(dst []uint64) {
	b, ok := d.into(len(dst), 8)
	if !ok {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// I32sInto reads a length-prefixed []int32 straight into dst (see
// U64sInto).
func (d *Decoder) I32sInto(dst []int32) {
	b, ok := d.into(len(dst), 4)
	if !ok {
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Ints reads a length-prefixed []int.
func (d *Decoder) Ints() []int {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Header reads and validates the file header.
func (d *Decoder) Header() (Header, error) {
	if m := d.U32(); d.err == nil && m != Magic {
		d.fail("bad magic %#x, want %#x (not a snapshot file?)", m, Magic)
	}
	if v := d.U32(); d.err == nil && v != Version {
		d.fail("format version %d, this build reads version %d", v, Version)
	}
	d.Tag(TagHeader)
	h := Header{Kind: d.String(), Fingerprint: d.String()}
	return h, d.err
}

// ErrShape is wrapped by restore-site errors where the decoded structure
// does not match the target object's geometry.
var ErrShape = errors.New("snapshot: shape mismatch")

// ShapeErrorf builds a shape-mismatch error (wrapping ErrShape) for
// Restore implementations that validate decoded lengths against the
// target's construction-time geometry.
func ShapeErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrShape}, args...)...)
}
