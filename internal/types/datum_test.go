package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDatumConstructorsAndString(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null(), "NULL"},
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewDecimal(12345), "123.45"},
		{NewDecimal(-205), "-2.05"},
		{NewDecimal(7), "0.07"},
		{DateFromYMD(2010, 1, 1), "2010-01-01"},
		{NewString("hello"), "hello"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDecimalFromFloat(t *testing.T) {
	if d := DecimalFromFloat(123.456); d.I != 12346 {
		t.Errorf("DecimalFromFloat(123.456) = %d, want 12346", d.I)
	}
	if d := DecimalFromFloat(-0.005); d.I != -1 {
		t.Errorf("DecimalFromFloat(-0.005) = %d, want -1", d.I)
	}
}

func TestParseDateRoundTrip(t *testing.T) {
	d, err := ParseDate("2010-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "2010-01-01" {
		t.Fatalf("round trip = %q", d.String())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Fatal("expected error for bad date")
	}
}

func TestDateArithmetic(t *testing.T) {
	d := DateFromYMD(2010, 1, 1)
	if got := d.AddMonths(12).String(); got != "2011-01-01" {
		t.Errorf("AddMonths(12) = %s", got)
	}
	if got := d.AddMonths(3).String(); got != "2010-04-01" {
		t.Errorf("AddMonths(3) = %s", got)
	}
	if got := d.AddDays(31).String(); got != "2010-02-01" {
		t.Errorf("AddDays(31) = %s", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewDecimal(100), NewInt(1), 0},      // 1.00 == 1
		{NewDecimal(150), NewFloat(1.25), 1}, // 1.50 > 1.25
		{NewFloat(0.5), NewDecimal(100), -1}, // 0.5 < 1.00
		{NewString("a"), NewString("b"), -1},
		{NewString("abc"), NewString("abc"), 0},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		{DateFromYMD(2010, 1, 1), DateFromYMD(2010, 6, 1), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareMixedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic comparing string with int")
		}
	}()
	Compare(NewString("x"), NewInt(1))
}

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: KindInt, NotNull: true},
		Column{Name: "price", Kind: KindDecimal},
		Column{Name: "ship", Kind: KindDate},
		Column{Name: "comment", Kind: KindString},
		Column{Name: "ratio", Kind: KindFloat},
	)
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := testSchema()
	rows := []Row{
		{NewInt(1), NewDecimal(9999), DateFromYMD(1998, 7, 1), NewString("hello world"), NewFloat(0.25)},
		{NewInt(-5), Null(), Null(), NewString(""), Null()},
		{Null(), NewDecimal(0), DateFromYMD(1970, 1, 1), NewString(string([]byte{0, 1, 2, 255})), NewFloat(-1e300)},
	}
	for _, r := range rows {
		buf := EncodeRow(nil, s, r)
		if len(buf) != EncodedLen(s, r) {
			t.Errorf("EncodedLen mismatch: got %d want %d", EncodedLen(s, r), len(buf))
		}
		out := make(Row, s.Len())
		n, err := DecodeRow(buf, s, out)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d bytes", n, len(buf))
		}
		for i := range r {
			if !Equal(r[i], out[i]) || r[i].K != out[i].K {
				t.Errorf("col %d: got %v want %v", i, out[i], r[i])
			}
		}
	}
}

func TestDecodeRowTruncation(t *testing.T) {
	s := testSchema()
	r := Row{NewInt(1), NewDecimal(2), DateFromYMD(2000, 1, 1), NewString("abc"), NewFloat(1)}
	buf := EncodeRow(nil, s, r)
	out := make(Row, s.Len())
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRow(buf[:cut], s, out); err == nil {
			t.Fatalf("expected truncation error at %d bytes", cut)
		}
	}
}

// TestDecodeRowRejectsHugeStringLength: a string length of 2^63 or
// more (integer bytes read under a descriptor that declares the column a
// string) is an error, not a slice-bounds panic.
func TestDecodeRowRejectsHugeStringLength(t *testing.T) {
	s := NewSchema(Column{Name: "s", Kind: KindString})
	buf := binary.AppendUvarint([]byte{0}, 1<<63+7)
	buf = append(buf, "abc"...)
	if _, err := DecodeRow(buf, s, make(Row, 1)); err == nil {
		t.Fatal("DecodeRow accepted a 2^63-byte string")
	}
}

func randomDatum(r *rand.Rand, k Kind) Datum {
	switch k {
	case KindInt:
		return NewInt(r.Int63n(1<<40) - (1 << 39))
	case KindDecimal:
		return NewDecimal(r.Int63n(1<<32) - (1 << 31))
	case KindDate:
		return NewDate(int32(r.Intn(20000)))
	case KindFloat:
		return NewFloat(r.NormFloat64() * 1e6)
	case KindString:
		b := make([]byte, r.Intn(24))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return NewString(string(b))
	default:
		return Null()
	}
}

// Property: the row codec round-trips random rows.
func TestRowCodecQuick(t *testing.T) {
	s := testSchema()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := make(Row, s.Len())
		for i, c := range s.Cols {
			if r.Intn(5) == 0 {
				row[i] = Null()
			} else {
				row[i] = randomDatum(r, c.Kind)
			}
		}
		buf := EncodeRow(nil, s, row)
		out := make(Row, s.Len())
		if _, err := DecodeRow(buf, s, out); err != nil {
			return false
		}
		for i := range row {
			if !Equal(row[i], out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: EncodeKey ordering matches Compare ordering for same-kind keys.
func TestKeyEncodingOrderQuick(t *testing.T) {
	kinds := []Kind{KindInt, KindDecimal, KindDate, KindFloat, KindString}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := kinds[r.Intn(len(kinds))]
		a, b := randomDatum(r, k), randomDatum(r, k)
		ka := EncodeKey(nil, Row{a})
		kb := EncodeKey(nil, Row{b})
		cmp := Compare(a, b)
		bcmp := bytes.Compare(ka, kb)
		if cmp < 0 {
			return bcmp < 0
		}
		if cmp > 0 {
			return bcmp > 0
		}
		return bcmp == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncodingCompositeOrder(t *testing.T) {
	// (1, "b") < (2, "a"), and ("a", 2) < ("ab", 1): composite keys order
	// column-by-column even with variable-length strings.
	a := EncodeKey(nil, Row{NewInt(1), NewString("b")})
	b := EncodeKey(nil, Row{NewInt(2), NewString("a")})
	if bytes.Compare(a, b) >= 0 {
		t.Error("(1,b) should sort before (2,a)")
	}
	c := EncodeKey(nil, Row{NewString("a"), NewInt(2)})
	d := EncodeKey(nil, Row{NewString("ab"), NewInt(1)})
	if bytes.Compare(c, d) >= 0 {
		t.Error("(a,2) should sort before (ab,1)")
	}
	// Embedded NUL must not break prefix ordering.
	e := EncodeKey(nil, Row{NewString("a\x00")})
	g := EncodeKey(nil, Row{NewString("a\x00b")})
	if bytes.Compare(e, g) >= 0 {
		t.Error("a\\0 should sort before a\\0b")
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := testSchema()
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.ColIndex("ship") != 2 {
		t.Errorf("ColIndex(ship) = %d", s.ColIndex("ship"))
	}
	if s.ColIndex("nope") != -1 {
		t.Errorf("ColIndex(nope) = %d", s.ColIndex("nope"))
	}
	p := s.Project([]int{3, 0})
	if p.Len() != 2 || p.Cols[0].Name != "comment" || p.Cols[1].Name != "id" {
		t.Errorf("Project result wrong: %+v", p.Cols)
	}
	if s.RowWidth() <= 0 {
		t.Error("RowWidth should be positive")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColIndex should panic on unknown column")
		}
	}()
	s.MustColIndex("nope")
}

func TestColumnWidth(t *testing.T) {
	cases := []struct {
		c    Column
		want int
	}{
		{Column{Kind: KindInt}, 8},
		{Column{Kind: KindDate}, 4},
		{Column{Kind: KindString, FixedLen: 25}, 25},
		{Column{Kind: KindString, AvgLen: 40}, 40},
		{Column{Kind: KindString}, 16},
	}
	for _, c := range cases {
		if got := c.c.Width(); got != c.want {
			t.Errorf("Width(%+v) = %d, want %d", c.c, got, c.want)
		}
	}
}

func TestRowCloneAndString(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].I != 1 {
		t.Error("Clone aliases original")
	}
	if got := r.String(); got != "(1, x)" {
		t.Errorf("Row.String() = %q", got)
	}
}

// TestDecodeDatumRejectsBadStringLength: a string length the buffer
// cannot hold — 2^63 or more included, which would wrap negative as an
// int — is an error, not a slice-bounds panic.
func TestDecodeDatumRejectsBadStringLength(t *testing.T) {
	for _, l := range []uint64{4, 1 << 62, 1 << 63, 1<<63 + 7, math.MaxUint64} {
		buf := binary.AppendUvarint([]byte{byte(KindString)}, l)
		buf = append(buf, "abc"...)
		if _, _, err := DecodeDatum(buf); err == nil {
			t.Errorf("DecodeDatum accepted string length %d in %d bytes", l, len(buf))
		}
	}
}
