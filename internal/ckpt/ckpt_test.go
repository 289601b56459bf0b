package ckpt

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// writeSample encodes a small two-section checkpoint exercising every
// token type and returns its text.
func writeSample(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("clock")
	e.Line("slot").Uint(12345).Bool(true).Done()
	e.End("clock")
	e.Begin("stats")
	e.Line("run").Uint(3).Float(1.5).Float(math.Copysign(0, -1)).Float(math.NaN()).Float(math.Inf(1)).Done()
	e.Begin("nested")
	e.Line("label").Str(`hello "quoted" world`).Int(-42).Done()
	e.Line("empty-rec").Done()
	e.End("nested")
	e.End("stats")
	if err := e.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.String()
}

func TestRoundTrip(t *testing.T) {
	text := writeSample(t)
	d, err := NewDecoder(strings.NewReader(text))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if err := d.Begin("clock"); err != nil {
		t.Fatalf("Begin clock: %v", err)
	}
	r := d.Record("slot")
	if got := r.Uint(); got != 12345 {
		t.Errorf("slot: %d", got)
	}
	if !r.Bool() {
		t.Error("bool field")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("slot Done: %v", err)
	}
	if err := d.End("clock"); err != nil {
		t.Fatalf("End clock: %v", err)
	}
	if err := d.Begin("stats"); err != nil {
		t.Fatalf("Begin stats: %v", err)
	}
	r = d.Record("run")
	if n := r.Uint(); n != 3 {
		t.Errorf("n: %d", n)
	}
	if v := r.Float(); v != 1.5 {
		t.Errorf("float: %v", v)
	}
	if v := r.Float(); v != 0 || !math.Signbit(v) {
		t.Errorf("negative zero lost: %v signbit=%v", v, math.Signbit(v))
	}
	if v := r.Float(); !math.IsNaN(v) {
		t.Errorf("NaN lost: %v", v)
	}
	if v := r.Float(); !math.IsInf(v, 1) {
		t.Errorf("+Inf lost: %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("run Done: %v", err)
	}
	if err := d.Begin("nested"); err != nil {
		t.Fatalf("Begin nested: %v", err)
	}
	r = d.Record("label")
	if s := r.Str(); s != `hello "quoted" world` {
		t.Errorf("string: %q", s)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("int: %d", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("label Done: %v", err)
	}
	if err := d.Record("empty-rec").Done(); err != nil {
		t.Fatalf("empty record: %v", err)
	}
	if err := d.End("nested"); err != nil {
		t.Fatalf("End nested: %v", err)
	}
	if err := d.End("stats"); err != nil {
		t.Fatalf("End stats: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFloatBitExactness(t *testing.T) {
	vals := []float64{0, -0.0, 1e-308, 5e-324, math.MaxFloat64, 0.1, 1.0 / 3.0,
		math.Pi, -math.Pi, math.Inf(-1)}
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("f")
	for _, v := range vals {
		e.Line("v").Float(v).Done()
	}
	e.End("f")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin("f"); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got := d.Record("v").Float()
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("value %d: %x round-tripped to %x", i, math.Float64bits(v), math.Float64bits(got))
		}
	}
	if err := d.End("f"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	if writeSample(t) != writeSample(t) {
		t.Fatal("identical encodes produced different bytes")
	}
}

func TestVariableLengthLoop(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("items")
	for i := 0; i < 5; i++ {
		e.Line("item").Int(int64(i)).Done()
	}
	e.End("items")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin("items"); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for !d.AtEnd("items") {
		if k := d.PeekKey(); k != "item" {
			t.Fatalf("PeekKey: %q", k)
		}
		got = append(got, d.Record("item").Int())
	}
	if err := d.End("items"); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("items: %v", got)
	}
}

// TestCorruptionRejection damages a valid checkpoint in every structural
// way a file can rot and requires each to be rejected — the strictness
// contract mirrored from osmosis-trace v1.
func TestCorruptionRejection(t *testing.T) {
	good := writeSample(t)
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	// consume walks the whole sample stream the way a real reader would.
	consume := func(text string) error {
		d, err := NewDecoder(strings.NewReader(text))
		if err != nil {
			return err
		}
		if err := d.Begin("clock"); err != nil {
			return err
		}
		r := d.Record("slot")
		_, _ = r.Uint(), r.Bool()
		if err := r.Done(); err != nil {
			return err
		}
		if err := d.End("clock"); err != nil {
			return err
		}
		if err := d.Begin("stats"); err != nil {
			return err
		}
		r = d.Record("run")
		_, _, _, _, _ = r.Uint(), r.Float(), r.Float(), r.Float(), r.Float()
		if err := r.Done(); err != nil {
			return err
		}
		if err := d.Begin("nested"); err != nil {
			return err
		}
		r = d.Record("label")
		_, _ = r.Str(), r.Int()
		if err := r.Done(); err != nil {
			return err
		}
		if err := d.Record("empty-rec").Done(); err != nil {
			return err
		}
		if err := d.End("nested"); err != nil {
			return err
		}
		if err := d.End("stats"); err != nil {
			return err
		}
		return d.Close()
	}
	if err := consume(good); err != nil {
		t.Fatalf("control: valid checkpoint rejected: %v", err)
	}

	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"wrong magic", strings.Replace(good, "osmosis-ckpt", "osmosis-nope", 1)},
		{"future version", strings.Replace(good, "osmosis-ckpt v1", "osmosis-ckpt v2", 1)},
		{"truncated mid-file", strings.Join(lines[:4], "\n") + "\n"},
		{"missing trailer", strings.Join(lines[:len(lines)-1], "\n") + "\n"},
		{"no final newline", strings.TrimSuffix(good, "\n")},
		{"flipped value bit", strings.Replace(good, "12345", "12344", 1)},
		{"edited then stale checksum", strings.Replace(good, "slot 12345", "slot 99999", 1)},
		{"malformed checksum", good[:strings.LastIndex(good, "checksum")] + "checksum zzzz\n"},
		{"trailing garbage", good + "extra\n"},
		{"reordered records", swapLines(good, 2, 4)},
		{"duplicated record", strings.Replace(good, "begin stats\n", "begin stats\nbegin stats\n", 1)},
		{"crlf line ending", strings.Replace(good, "begin clock\n", "begin clock\r\n", 1)},
		{"non-numeric field", strings.Replace(good, "slot 12345", "slot abc", 1)},
		{"boolean out of range", strings.Replace(good, "slot 12345 1", "slot 12345 2", 1)},
		{"missing field", strings.Replace(good, "slot 12345 1", "slot 12345", 1)},
		{"extra field", strings.Replace(good, "slot 12345 1", "slot 12345 1 7", 1)},
	}
	for _, tc := range cases {
		if err := consume(tc.text); err == nil {
			t.Errorf("%s: corruption accepted", tc.name)
		}
	}
}

// swapLines exchanges two (0-based) line indices of text.
func swapLines(text string, i, j int) string {
	ls := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	ls[i], ls[j] = ls[j], ls[i]
	return strings.Join(ls, "\n") + "\n"
}

func TestEncoderRejectsBadStructure(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Begin("a")
	e.End("b") // mismatched
	if e.Close() == nil {
		t.Error("mismatched End accepted")
	}

	e = NewEncoder(&b)
	e.Begin("open")
	if e.Close() == nil {
		t.Error("Close with open section accepted")
	}

	e = NewEncoder(&b)
	e.Line("bad key!").Uint(1).Done()
	if e.Close() == nil {
		t.Error("invalid key accepted")
	}
}

func TestQuoteNeverEmitsSeparators(t *testing.T) {
	for _, s := range []string{"", "a b", " lead", "trail ", "tab\tchar", "nl\nchar", "nel\u0085char", "nbsp\u00a0char", "ideo\u3000char", `q"uote`, "json: {\"a\": 1, \"b c\": [2, 3]}"} {
		tok := Quote(s)
		if strings.IndexFunc(tok, unicode.IsSpace) >= 0 {
			t.Errorf("Quote(%q) = %q contains white space", s, tok)
		}
		var b strings.Builder
		e := NewEncoder(&b)
		e.Begin("s")
		e.Line("v").Str(s).Done()
		e.End("s")
		if err := e.Close(); err != nil {
			t.Fatalf("Quote(%q): encode: %v", s, err)
		}
		d, err := NewDecoder(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Begin("s"); err != nil {
			t.Fatal(err)
		}
		if got := d.Record("v").Str(); got != s {
			t.Errorf("Quote round-trip: %q -> %q", s, got)
		}
		if err := d.End("s"); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Quote(%q): decode close: %v", s, err)
		}
	}
}

func TestDecoderLatchedError(t *testing.T) {
	d, err := NewDecoder(strings.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Begin("wrong"); err == nil {
		t.Fatal("wrong section accepted")
	}
	// Every later call reports the same latched error.
	if err := d.Begin("clock"); err == nil {
		t.Error("error did not latch on Begin")
	}
	if d.Record("slot"); d.Err() == nil {
		t.Error("error did not latch on Record")
	}
	if err := d.Close(); err == nil {
		t.Error("error did not latch on Close")
	}
}

// TestLineTokens: the typed numeric fields are exactly strconv's
// decimal and hexadecimal-float tokens, including the float corner
// cases, so the bytes match what earlier encoders wrote.
func TestLineTokens(t *testing.T) {
	us := []uint64{0, 1, 9, 10, 12345, math.MaxUint32, math.MaxUint64}
	is := []int64{0, -1, 7, -4096, math.MaxInt64, math.MinInt64}
	fs := []float64{0, math.Copysign(0, -1), 1.5, -math.Pi, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	var viaLine strings.Builder
	want := header + "\n"
	e := NewEncoder(&viaLine)
	for i := range fs {
		u, n, f, b := us[i%len(us)], is[i%len(is)], fs[i], i%2
		e.Line("rec").Uint(u).Int(n).Float(f).Bool(b == 1).Done()
		want += fmt.Sprintf("rec %s %s %s %d\n", strconv.FormatUint(u, 10), strconv.FormatInt(n, 10),
			strconv.FormatFloat(f, 'x', -1, 64), b)
	}
	e.Line("bare").Done()
	want += "bare\n"
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reseal(want + "checksum 0\n"); viaLine.String() != got {
		t.Fatalf("Line wrote:\n%s\nwant:\n%s", viaLine.String(), got)
	}
}

func TestLineLeftOpenIsAnError(t *testing.T) {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Line("rec").Uint(1)
	e.Begin("next")
	if err := e.Close(); err == nil || !strings.Contains(err.Error(), `"rec"`) {
		t.Fatalf("unfinished Line: Close error %v, want one naming the record", err)
	}

	e = NewEncoder(&b)
	e.Line("bad key!").Uint(1).Done()
	if e.Close() == nil {
		t.Error("invalid Line key accepted")
	}
}

// reseal replaces the checksum trailer of an edited checkpoint with the
// hash of everything before it, so an edit reaches the record decoder.
func reseal(text string) string {
	body := text[:strings.LastIndex(strings.TrimSuffix(text, "\n"), "\n")+1]
	return body + fmt.Sprintf("checksum %016x\n", fold(uint64(fnvOffset), body))
}

// TestNonCanonicalSpacingRejected: the decoder takes only the single
// spaces the encoder writes between tokens, even when the checksum has
// been recomputed over the edit.
func TestNonCanonicalSpacingRejected(t *testing.T) {
	good := writeSample(t)
	for name, edit := range map[string]string{
		"tab":            "slot 12345\t1",
		"double space":   "slot 12345  1",
		"trailing space": "slot 12345 1 ",
		"key then space": "slot ",
		"no-break space": "slot 12345\u00a01",
		"next line":      "slot 12345\u00851",
	} {
		text := reseal(strings.Replace(good, "slot 12345 1", edit, 1))
		d, err := NewDecoder(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Begin("clock"); err != nil {
			t.Fatal(err)
		}
		r := d.Record("slot")
		_, _ = r.Uint(), r.Bool()
		if err := r.Done(); err == nil {
			t.Errorf("%s: record %q accepted", name, edit)
		}
	}
}

// TestNumericRecordsDoNotAllocate: writing a numeric record and reading
// one back into the reused cursor cost no heap allocation.
func TestNumericRecordsDoNotAllocate(t *testing.T) {
	e := NewEncoder(io.Discard)
	if n := testing.AllocsPerRun(200, func() {
		e.Line("flow").Int(2047).Int(-3).Uint(1).Uint(1 << 40).Bool(true).Done()
	}); n != 0 {
		t.Errorf("encoding a numeric record: %v allocations", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	var b strings.Builder
	e = NewEncoder(&b)
	for i := 0; i < runs+1; i++ {
		e.Line("flow").Int(2047).Int(-3).Uint(1).Uint(1 << 40).Bool(true).Done()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	if n := testing.AllocsPerRun(runs, func() {
		r := d.Record("flow")
		sum += r.Int() + r.Int() + int64(r.Uint()) + int64(r.Uint())
		if r.Bool() && r.Done() == nil {
			sum++
		}
	}); n != 0 {
		t.Errorf("decoding a numeric record: %v allocations", n)
	}
	if want := int64(runs+1) * (2047 - 3 + 1 + 1<<40 + 1); sum != want {
		t.Errorf("decoded sum %d, want %d (err %v)", sum, want, d.Err())
	}
}

// FuzzDecoderTokens is a differential check of the record tokenizer
// against strings.Fields: any line the decoder accepts as a record must
// split into the same tokens under strings.Fields. The decoder may
// reject lines strings.Fields would split (tabs, runs of spaces, Unicode
// spaces): the encoder never writes them.
func FuzzDecoderTokens(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		want := strings.Fields(line)
		if toks, ok := splitFields(nil, []byte(line)); ok {
			if !sameTokens(toks, want) {
				t.Fatalf("splitFields(%q) = %q, strings.Fields %q", line, toks, want)
			}
		}
		// The same property through Record, with the key the line leads
		// with. A newline would end the record early, so such lines only
		// exercise the tokenizer.
		key, _, _ := strings.Cut(line, " ")
		if !validName(key) || strings.Contains(line, "\n") {
			return
		}
		d, err := NewDecoder(strings.NewReader(reseal(header + "\n" + line + "\nchecksum 0\n")))
		if err != nil {
			t.Fatal(err)
		}
		r := d.Record(key)
		if d.Err() != nil {
			return
		}
		if got := append([][]byte{[]byte(key)}, r.fields...); !sameTokens(got, want) {
			t.Fatalf("Record over %q gave %q, strings.Fields %q", line, got, want)
		}
	})
}

func sameTokens(got [][]byte, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if string(got[i]) != want[i] {
			return false
		}
	}
	return true
}
