package snapshot

import (
	"testing"
)

// FuzzSnapshotDecode drives the decoder over arbitrary bytes through every
// read primitive, in an order resembling a real composite restore. The
// invariant under fuzzing: corrupt or truncated input surfaces as
// Decoder.Err(), never as a panic or a huge allocation (the length-prefix
// bounds cap every slice by the bytes actually remaining).
func FuzzSnapshotDecode(f *testing.F) {
	// Seed corpus: a well-formed composite encoding, a header, and a few
	// hand-broken variants so the fuzzer starts near the interesting
	// boundaries.
	good := NewEncoder()
	good.Header(Header{Kind: "chip", Fingerprint: "mix1/seed=1"})
	good.Tag(TagCache)
	good.U64s([]uint64{1, 2, 3})
	good.I32s([]int32{4, 5})
	good.F64s([]float64{6.5})
	good.Bool(true)
	good.Int(-7)
	good.String("ok")
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x50, 0x4d, 0x53})                         // magic only
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 2, 3, 4, 5}) // junk

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		// A header read first, as every file-level restore does.
		_, _ = d.Header()
		// Then a battery of section-style reads regardless of header
		// validity (the sticky error makes them no-ops after a failure,
		// which is exactly the code path restores rely on).
		d.Tag(TagCache)
		d.U64sInto(make([]uint64, 3))
		d.I32sInto(make([]int32, 2))
		_ = d.F64s()
		_ = d.Ints()
		_ = d.Bool()
		_ = d.U8()
		_ = d.U32()
		_ = d.U64()
		_ = d.Int()
		_ = d.F64()
		_ = d.String()
		if d.Err() == nil && d.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
		// Err() may be nil (the input happened to be well-formed) or
		// non-nil; both are fine. Reaching here without panicking is the
		// property.
	})
}
