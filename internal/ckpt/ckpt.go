// Package ckpt implements the versioned "osmosis-ckpt v1" checkpoint
// format: a line-oriented ASCII container for simulator state snapshots.
// A checkpoint taken at slot T and restored must reproduce the
// uninterrupted run bit for bit, so the format is exact (float64 values
// round-trip through hexadecimal notation), ordered (records decode in
// the same fixed order they were encoded — there is no random access and
// no optional-field skipping), and strict (any structural damage —
// truncation, reordering, edits, bit flips — is rejected, mirroring the
// osmosis-trace v1 contract).
//
// Layout:
//
//	osmosis-ckpt v1
//	begin <section>
//	<key> <field> <field> ...
//	end <section>
//	...
//	checksum <16 hex digits>
//
// Sections nest. Every record line is a key followed by typed tokens,
// each preceded by exactly one space: unsigned and signed integers in
// decimal, booleans as 0/1, float64 in Go hexadecimal-float notation
// ('x' format, exact), strings Go-quoted. The trailing checksum line
// carries the FNV-1a 64-bit hash of every byte that precedes it;
// Decoder.Close verifies it and rejects trailing garbage.
//
// Both Encoder and Decoder latch their first error: after a failure every
// later call is a no-op (Encoder) or returns the same error (Decoder), so
// call sites chain reads and writes without per-line checks and inspect
// the error once, at Close.
package ckpt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Version is the checkpoint format version this package reads and writes.
const Version = 1

// magic opens every checkpoint file.
const magic = "osmosis-ckpt"

// header is the exact first line of a version-1 checkpoint.
const header = magic + " v1"

// FNV-1a 64-bit parameters. Both ends fold the checksum inline over the
// bytes they write or read, so no line is copied just to be hashed.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold returns the FNV-1a state h advanced over the bytes of s.
func fold[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Encoder writes a checkpoint stream. Errors latch: after the first
// write failure all later calls are no-ops and Close reports the error.
type Encoder struct {
	w        *bufio.Writer
	sum      uint64 // FNV-1a state over every byte written so far
	sections []string
	// open is the key of the record Line started and Line.Done has not
	// finished yet; "" between records.
	open string
	num  [32]byte // scratch for formatting one numeric field
	err  error
}

// NewEncoder starts a version-1 checkpoint on w and writes the header.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w), sum: fnvOffset}
	e.write(header)
	e.endLine()
	return e
}

// write folds s into the checksum and buffers it. A write error sticks
// in the bufio.Writer; endLine latches it.
func (e *Encoder) write(s string) {
	e.sum = fold(e.sum, s)
	_, _ = e.w.WriteString(s)
}

// field writes one separator and one field token.
func (e *Encoder) field(b []byte) {
	e.sum = fold((e.sum^' ')*fnvPrime, b)
	_ = e.w.WriteByte(' ')
	_, _ = e.w.Write(b)
}

// endLine terminates the current line and latches any write error.
func (e *Encoder) endLine() {
	e.sum = (e.sum ^ '\n') * fnvPrime
	if err := e.w.WriteByte('\n'); err != nil {
		e.err = err
	}
}

// ready reports whether a new line may start: no latched error and no
// record left open by Line.
func (e *Encoder) ready() bool {
	if e.err == nil && e.open != "" {
		e.err = fmt.Errorf("ckpt: record %q started by Line was never finished with Done", e.open)
	}
	return e.err == nil
}

// tag writes a "begin <section>" or "end <section>" line.
func (e *Encoder) tag(word, section string) {
	e.write(word)
	e.write(" ")
	e.write(section)
	e.endLine()
}

// Begin opens a section. Sections must be closed in LIFO order by End.
func (e *Encoder) Begin(section string) {
	if !e.ready() {
		return
	}
	if !validName(section) {
		e.err = fmt.Errorf("ckpt: invalid section name %q", section)
		return
	}
	e.sections = append(e.sections, section)
	e.tag("begin", section)
}

// End closes the innermost open section, which must be named section.
func (e *Encoder) End(section string) {
	if !e.ready() {
		return
	}
	if len(e.sections) == 0 || e.sections[len(e.sections)-1] != section {
		e.err = fmt.Errorf("ckpt: End(%q) does not match open section", section)
		return
	}
	e.sections = e.sections[:len(e.sections)-1]
	e.tag("end", section)
}

// Line starts a record. Append the fields with the typed methods and
// finish the record with Done:
//
//	e.Line("flow").Int(src).Int(dst).Uint(class).Uint(seq).Done()
//
// Numeric fields are formatted straight into the output buffer, so a
// numeric record costs no allocation. No field can contain a separator
// byte: digits, signs and hexadecimal floats never do, and Str quotes
// its string.
func (e *Encoder) Line(key string) Line {
	if e.ready() {
		if validName(key) {
			e.open = key
			e.write(key)
		} else {
			e.err = fmt.Errorf("ckpt: invalid record key %q", key)
		}
	}
	return Line{e}
}

// Line is a record being written; see Encoder.Line. Every method is a
// no-op once the encoder has latched an error.
type Line struct{ e *Encoder }

// Uint appends an unsigned integer field.
func (l Line) Uint(v uint64) Line {
	if l.e.err == nil {
		l.e.field(strconv.AppendUint(l.e.num[:0], v, 10))
	}
	return l
}

// Int appends a signed integer field.
func (l Line) Int(v int64) Line {
	if l.e.err == nil {
		l.e.field(strconv.AppendInt(l.e.num[:0], v, 10))
	}
	return l
}

// Float appends a float64 field in hexadecimal notation; the decoded
// value is bit-identical, including negative zero, infinities, and the
// NaN the stats package uses for undefined moments.
func (l Line) Float(v float64) Line {
	if l.e.err == nil {
		l.e.field(strconv.AppendFloat(l.e.num[:0], v, 'x', -1, 64))
	}
	return l
}

// Bool appends a boolean field as 0 or 1.
func (l Line) Bool(v bool) Line {
	if v {
		return l.Uint(1)
	}
	return l.Uint(0)
}

// Str appends a string field rendered with Quote.
func (l Line) Str(s string) Line {
	if l.e.err == nil {
		l.e.field([]byte(Quote(s)))
	}
	return l
}

// Done ends the record.
func (l Line) Done() {
	if l.e.err == nil {
		l.e.open = ""
		l.e.endLine()
	}
}

// Close writes the checksum trailer and flushes. It reports the first
// error encountered anywhere in the encode.
func (e *Encoder) Close() error {
	if e.ready() && len(e.sections) != 0 {
		e.err = fmt.Errorf("ckpt: Close with section %q still open", e.sections[len(e.sections)-1])
	}
	if e.err != nil {
		return e.err
	}
	// The checksum line covers everything before it and is not itself
	// hashed.
	if _, err := fmt.Fprintf(e.w, "checksum %016x\n", e.sum); err != nil {
		e.err = err
		return e.err
	}
	e.err = e.w.Flush()
	return e.err
}

// Err reports the latched error, if any, without closing.
func (e *Encoder) Err() error { return e.err }

// Fail latches a caller-side error (e.g. a component whose live state is
// not checkpointable); the encode is poisoned and Close reports it.
func (e *Encoder) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Quote renders a string token as a Go-quoted literal with spaces
// escaped, so the token never contains a raw field separator. Rec.Str
// reverses it via strconv.Unquote.
func Quote(s string) string {
	return strings.ReplaceAll(strconv.Quote(s), " ", `\x20`)
}

// validName restricts section names and record keys to a conservative
// token alphabet so the line structure stays unambiguous.
func validName(s string) bool {
	if s == "" || s == "begin" || s == "end" || s == "checksum" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Decoder reads a checkpoint stream written by Encoder. Reads are
// strictly sequential: the caller asks for exactly the sections and
// record keys it expects, in order, and any mismatch — wrong key, wrong
// field count, malformed token, structural damage — is an error. Errors
// latch; Close verifies the checksum trailer and clean EOF.
type Decoder struct {
	r        *bufio.Reader
	sum      uint64 // FNV-1a state over every consumed line
	sections []string
	// line is the most recently consumed line; the current Rec's fields
	// point into it.
	line []byte
	// ahead is the one-line lookahead when peeked is set. It is not yet
	// hashed: next folds it into the checksum when it consumes it.
	ahead  []byte
	peeked bool
	rec    Rec // the cursor Record hands out, reused for every record
	err    error
}

// NewDecoder wraps r and validates the version-1 header line.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r), sum: fnvOffset}
	d.rec.d = d
	first, err := d.readLine(nil)
	if err != nil {
		return nil, fmt.Errorf("ckpt: header: %w", err)
	}
	d.sum = fold(fold(d.sum, first), "\n")
	if string(first) != header {
		if bytes.HasPrefix(first, []byte(magic+" ")) {
			return nil, fmt.Errorf("ckpt: unsupported version %q (this build reads v%d)", first, Version)
		}
		return nil, fmt.Errorf("ckpt: not a checkpoint (header %q)", first)
	}
	return d, nil
}

// readLine reads one line into buf's storage and returns it without the
// newline. It does not hash and does not consult the lookahead; hashing
// happens when the line is consumed by next, so a peeked-but-unconsumed
// trailer never perturbs the checksum Close captures.
func (d *Decoder) readLine(buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := d.r.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			if err == io.EOF && len(buf) > 0 {
				return buf, fmt.Errorf("truncated line %q", buf)
			}
			return buf, err
		}
	}
	buf = buf[:len(buf)-1]
	if bytes.IndexByte(buf, '\r') >= 0 {
		return buf, fmt.Errorf("carriage return in line %q", buf)
	}
	return buf, nil
}

// readErr latches a readLine failure.
func (d *Decoder) readErr(err error) error {
	if err == io.EOF {
		d.err = fmt.Errorf("ckpt: unexpected end of checkpoint")
	} else {
		d.err = fmt.Errorf("ckpt: %w", err)
	}
	return d.err
}

// next consumes the next line, taking the lookahead if present, and
// folds it into the checksum. The returned bytes stay valid until the
// following call to next.
func (d *Decoder) next() ([]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.peeked {
		d.line, d.ahead = d.ahead, d.line
		d.peeked = false
	} else {
		line, err := d.readLine(d.line)
		d.line = line
		if err != nil {
			return nil, d.readErr(err)
		}
	}
	d.sum = fold(fold(d.sum, d.line), "\n")
	return d.line, nil
}

// peek returns the next line without consuming it (and without folding
// it into the checksum — that happens when next consumes it).
func (d *Decoder) peek() ([]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.peeked {
		line, err := d.readLine(d.ahead)
		d.ahead = line
		if err != nil {
			return nil, d.readErr(err)
		}
		d.peeked = true
	}
	return d.ahead, nil
}

// fail latches and returns a decode error.
func (d *Decoder) fail(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
	return d.err
}

// Err reports the latched error, if any.
func (d *Decoder) Err() error { return d.err }

// isTag reports whether line is exactly word + " " + section.
func isTag(line []byte, word, section string) bool {
	return len(line) == len(word)+1+len(section) &&
		string(line[:len(word)]) == word && line[len(word)] == ' ' &&
		string(line[len(word)+1:]) == section
}

// Begin consumes the opening line of the named section.
func (d *Decoder) Begin(section string) error {
	line, err := d.next()
	if err != nil {
		return err
	}
	if !isTag(line, "begin", section) {
		return d.fail("want %q, found %q", "begin "+section, line)
	}
	d.sections = append(d.sections, section)
	return nil
}

// End consumes the closing line of the named section, which must be the
// innermost open one.
func (d *Decoder) End(section string) error {
	line, err := d.next()
	if err != nil {
		return err
	}
	if len(d.sections) == 0 || d.sections[len(d.sections)-1] != section {
		return d.fail("End(%q) does not match open section", section)
	}
	if !isTag(line, "end", section) {
		return d.fail("want %q, found %q", "end "+section, line)
	}
	d.sections = d.sections[:len(d.sections)-1]
	return nil
}

// AtEnd reports whether the next line closes the named section, without
// consuming it. It lets a reader loop over a variable-length run of
// records inside a section.
func (d *Decoder) AtEnd(section string) bool {
	line, err := d.peek()
	if err != nil {
		return true // the latched error surfaces on the next read
	}
	return isTag(line, "end", section)
}

// PeekKey reports the key token of the next record line without
// consuming it ("" on structural lines or after an error).
func (d *Decoder) PeekKey() string {
	line, err := d.peek()
	if err != nil {
		return ""
	}
	key, _, _ := bytes.Cut(line, []byte(" "))
	switch string(key) {
	case "begin", "end", "checksum":
		return ""
	}
	return string(key)
}

// Record consumes the next line, which must be a record with the given
// key, and returns a cursor over its field tokens. The cursor shares the
// decoder's latched error state. The decoder reuses one cursor and one
// line buffer, so the returned Rec is valid only until the next Begin,
// End, Record or Close: read its fields before reading on.
func (d *Decoder) Record(key string) *Rec {
	rec := &d.rec
	rec.key, rec.fields, rec.pos = key, rec.fields[:0], 0
	line, err := d.next()
	if err != nil {
		return rec
	}
	got, rest, hasFields := bytes.Cut(line, []byte(" "))
	if string(got) != key {
		_ = d.fail("want record %q, found %q", key, line)
		return rec
	}
	if hasFields {
		var ok bool
		if rec.fields, ok = splitFields(rec.fields, rest); !ok {
			_ = d.fail("record %q: malformed field separators in %q", key, line)
		}
	}
	return rec
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends the tokens of s to dst. It accepts only the form
// the encoder writes — nonempty tokens joined by single spaces, with no
// other white space anywhere — and reports false for anything else.
// Whatever it accepts, strings.Fields splits into the same tokens.
func splitFields(dst [][]byte, s []byte) ([][]byte, bool) {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			if i == start {
				return dst, false
			}
			dst = append(dst, s[start:i])
			start = i + 1
		case c < utf8.RuneSelf:
			if asciiSpace[c] {
				return dst, false
			}
		default:
			r, size := utf8.DecodeRune(s[i:])
			if unicode.IsSpace(r) {
				return dst, false
			}
			i += size - 1
		}
	}
	if start == len(s) {
		return dst, false
	}
	return append(dst, s[start:]), true
}

// Close consumes the checksum trailer, verifies it, and requires clean
// EOF after it.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.sections) != 0 {
		return d.fail("Close with section %q still open", d.sections[len(d.sections)-1])
	}
	want := d.sum // state before the trailer line is hashed
	line, err := d.next()
	if err != nil {
		return err
	}
	fields := strings.Fields(string(line))
	if len(fields) != 2 || fields[0] != "checksum" {
		return d.fail("want checksum trailer, found %q", line)
	}
	got, perr := strconv.ParseUint(fields[1], 16, 64)
	if perr != nil || len(fields[1]) != 16 {
		return d.fail("malformed checksum %q", fields[1])
	}
	if got != want {
		return d.fail("checksum mismatch: file says %016x, content hashes to %016x", got, want)
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return d.fail("trailing bytes after checksum")
	}
	return nil
}

// Rec is a sequential cursor over one record's field tokens. Typed reads
// consume tokens left to right; Done asserts exhaustion. All methods are
// no-ops (returning zero values) once an error is latched on the
// decoder. A Rec is valid only until the decoder reads on (see Record).
type Rec struct {
	d      *Decoder
	key    string
	fields [][]byte // tokens inside the decoder's current line
	pos    int
}

// token consumes the next raw field token.
func (r *Rec) token() ([]byte, bool) {
	if r.d.err != nil {
		return nil, false
	}
	if r.pos >= len(r.fields) {
		_ = r.d.fail("record %q: missing field %d", r.key, r.pos+1)
		return nil, false
	}
	t := r.fields[r.pos]
	r.pos++
	return t, true
}

// Uint consumes an unsigned integer field.
func (r *Rec) Uint() uint64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	// strconv copies its input into any error it returns, so the
	// conversion of a short token stays on the stack.
	v, err := strconv.ParseUint(string(t), 10, 64)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return 0
	}
	return v
}

// Int consumes a signed integer field.
func (r *Rec) Int() int64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(string(t), 10, 64)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return 0
	}
	return v
}

// IntAsInt consumes a signed integer field that must fit in int.
func (r *Rec) IntAsInt() int {
	v := r.Int()
	if int64(int(v)) != v {
		_ = r.d.fail("record %q field %d: %d overflows int", r.key, r.pos, v)
		return 0
	}
	return int(v)
}

// Float consumes a float64 field written in hexadecimal notation.
func (r *Rec) Float() float64 {
	t, ok := r.token()
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(t), 64)
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return 0
	}
	return v
}

// Bool consumes a boolean field (0 or 1).
func (r *Rec) Bool() bool {
	t, ok := r.token()
	if !ok {
		return false
	}
	switch string(t) {
	case "0":
		return false
	case "1":
		return true
	}
	_ = r.d.fail("record %q field %d: boolean %q not 0/1", r.key, r.pos, t)
	return false
}

// Str consumes a Go-quoted string field.
func (r *Rec) Str() string {
	t, ok := r.token()
	if !ok {
		return ""
	}
	v, err := strconv.Unquote(string(t))
	if err != nil {
		_ = r.d.fail("record %q field %d: %v", r.key, r.pos, err)
		return ""
	}
	return v
}

// Len reports the total number of field tokens in the record, letting a
// reader consume a batch record whose width varies (e.g. up to k sample
// values per line).
func (r *Rec) Len() int { return len(r.fields) }

// Done asserts every field has been consumed; extra fields are an error.
func (r *Rec) Done() error {
	if r.d.err != nil {
		return r.d.err
	}
	if r.pos != len(r.fields) {
		return r.d.fail("record %q: %d trailing fields", r.key, len(r.fields)-r.pos)
	}
	return nil
}
