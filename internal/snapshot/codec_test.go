package snapshot

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func decoder(t *testing.T, b []byte) *Decoder {
	t.Helper()
	d, err := NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPrimitivesRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Mark("head")
	e.U8(0xAB)
	e.U32(0xDEADBEEF)
	e.U64(math.MaxUint64)
	e.I64(math.MinInt64)
	e.Int(-42)
	e.Int(math.MaxInt32 + 1)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{0, 1, 2})
	e.String("smtp")
	e.U64s([]uint64{1, math.MaxUint64, 0})
	e.U64s(nil)
	e.Ints([]int{-1, 0, 7})
	e.Bools([]bool{true, false, true})
	e.Mark("tail")

	d := decoder(t, e.Finish())
	d.Expect("head")
	if v := d.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.I64(); v != math.MinInt64 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Int(); v != math.MaxInt32+1 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair did not round trip")
	}
	if v := d.Bytes(); !slices.Equal(v, []byte{0, 1, 2}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.String(); v != "smtp" {
		t.Errorf("String = %q", v)
	}
	if v := d.U64s(); !slices.Equal(v, []uint64{1, math.MaxUint64, 0}) {
		t.Errorf("U64s = %v", v)
	}
	if v := d.U64s(); len(v) != 0 {
		t.Errorf("empty U64s = %v", v)
	}
	if v := d.Ints(); !slices.Equal(v, []int{-1, 0, 7}) {
		t.Errorf("Ints = %v", v)
	}
	if v := d.Bools(); !slices.Equal(v, []bool{true, false, true}) {
		t.Errorf("Bools = %v", v)
	}
	d.Expect("tail")
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.Mark("x")
		e.U64s([]uint64{3, 1, 2})
		e.String("same")
		return e.Finish()
	}
	if a, b := enc(), enc(); !slices.Equal(a, b) {
		t.Fatal("identical writes encoded differently")
	}
}

func TestRejectsWrongMagic(t *testing.T) {
	b := NewEncoder().Finish()
	b[0] ^= 0xFF
	if _, err := NewDecoder(b); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic: err = %v", err)
	}
	if _, err := NewDecoder([]byte("SMTP")); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestRejectsWrongVersion(t *testing.T) {
	e := &Encoder{}
	e.buf = append(e.buf, Magic...)
	e.U32(Version + 1)
	_, err := NewDecoder(e.Finish())
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: err = %v", err)
	}
}

func TestRejectsTruncatedInput(t *testing.T) {
	e := NewEncoder()
	e.Mark("sec")
	e.U64(7)
	e.U64s([]uint64{1, 2, 3})
	e.Bytes([]byte("payload"))
	full := e.Finish()
	header := len(Magic) + 4
	for cut := header; cut < len(full); cut++ {
		d := decoder(t, full[:cut])
		d.Expect("sec")
		d.U64()
		d.U64s()
		d.Bytes()
		if d.Err() == nil {
			t.Fatalf("input cut to %d of %d bytes decoded without error", cut, len(full))
		}
	}
}

func TestRejectsOversizedLengths(t *testing.T) {
	for name, read := range map[string]func(*Decoder){
		"U64s":  func(d *Decoder) { d.U64s() },
		"Ints":  func(d *Decoder) { d.Ints() },
		"Bools": func(d *Decoder) { d.Bools() },
		"Bytes": func(d *Decoder) { d.Bytes() },
		"Count": func(d *Decoder) { d.Count(1) },
	} {
		e := NewEncoder()
		e.U64(math.MaxUint64) // a length prefix no stream can satisfy
		d := decoder(t, e.Finish())
		read(d)
		if d.Err() == nil {
			t.Errorf("%s: oversized length accepted", name)
		}
	}
}

// TestCountBoundsByRemainingStream checks that a count is accepted up to
// what the rest of the stream could hold at the element size given, and
// rejected one past it.
func TestCountBoundsByRemainingStream(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{2, true}, {3, false}, {-1, false}} {
		e := NewEncoder()
		e.Int(c.n)
		e.U64(7)
		e.U64(8)
		d := decoder(t, e.Finish())
		got := d.Count(8)
		if ok := d.Err() == nil; ok != c.want || (ok && got != c.n) {
			t.Errorf("count %d over 16 bytes of 8-byte elements: got %d, err %v", c.n, got, d.Err())
		}
	}
}

func TestExpectMismatchNamesBothMarks(t *testing.T) {
	e := NewEncoder()
	e.Mark("pipe")
	d := decoder(t, e.Finish())
	d.Expect("mc")
	err := d.Err()
	if err == nil || !strings.Contains(err.Error(), `"pipe"`) || !strings.Contains(err.Error(), `"mc"`) {
		t.Fatalf("mismatched mark: err = %v", err)
	}
}

func TestErrorsAreSticky(t *testing.T) {
	d := decoder(t, NewEncoder().Finish())
	d.U64() // truncated
	first := d.Err()
	if first == nil {
		t.Fatal("read past the end succeeded")
	}
	d.Fail("later failure")
	if d.Err() != first || d.U8() != 0 || d.Bool() {
		t.Fatal("decoder did not keep its first error and return zero values")
	}
}
