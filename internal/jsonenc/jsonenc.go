// Package jsonenc appends skserve's answers as JSON without reflection. Every
// function writes exactly the bytes encoding/json's Encoder writes for the
// same value, HTML escaping on: struct fields by Go name in declaration
// order, strings with '<', '>' and '&' escaped, U+2028 and U+2029 escaped,
// and each invalid UTF-8 byte written as \ufffd, and floats in 'f' or 'e'
// form by magnitude with a one-digit negative exponent. encoding/json
// refuses a NaN or infinite float; the functions that append one report
// false, and the caller encodes the value with encoding/json instead, which
// refuses it as it always has. The fuzz target and skserve's wire tests
// hold these functions to encoding/json.
package jsonenc

import (
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"spatialkeyword"
)

const (
	lsb = 0x0101010101010101 // the low bit of every byte of a word
	msb = 0x8080808080808080 // the high bit of every byte of a word
)

// plain[b] reports whether encoding/json copies ASCII byte b into a string
// as is: printable, and not '"', '\\', '<', '>' or '&'.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// flagged marks, by its high bit, each byte of the little-endian word w
// that a string cannot copy as is: a control byte, '"', '\\', '<', '>', '&',
// or a byte of a multi-byte rune. (x-lsb)&^x marks the zero bytes of x, so
// each of the five characters is a zero byte of w XOR it. A borrow only
// runs upwards from a marked byte, so the lowest mark is exact.
//
//skvet:hotpath
func flagged(w uint64) uint64 {
	q, bs, lt, gt, amp := w^'"'*lsb, w^'\\'*lsb, w^'<'*lsb, w^'>'*lsb, w^'&'*lsb
	return (w - 0x20*lsb | w |
		(q-lsb)&^q | (bs-lsb)&^bs | (lt-lsb)&^lt | (gt-lsb)&^gt | (amp-lsb)&^amp) & msb
}

// String appends s as a JSON string. Runs of bytes that need no escape are
// found eight at a time and copied in one append.
//
//skvet:hotpath
func String(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		for ; i+8 <= len(s); i += 8 {
			w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
				uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
			if f := flagged(w); f != 0 {
				i += bits.TrailingZeros64(f) >> 3
				break
			}
		}
		if i >= len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Float appends f as encoding/json writes a float64, and false for a NaN or
// an infinity, which JSON cannot carry.
//
//skvet:hotpath
func Float(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// floats appends a []float64: null when nil.
//
//skvet:hotpath
func floats(dst []byte, fs []float64) ([]byte, bool) {
	if fs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = Float(dst, f); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// Strings appends a []string: null when nil.
func Strings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = String(dst, s)
	}
	return append(dst, ']')
}

// object appends a spatialkeyword.Object.
//
//skvet:hotpath
func object(dst []byte, o *spatialkeyword.Object) ([]byte, bool) {
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendUint(dst, o.ID, 10)
	dst = append(dst, `,"Point":`...)
	dst, ok := floats(dst, o.Point)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"Text":`...)
	dst = String(dst, o.Text)
	return append(dst, '}'), true
}

// Results appends distance-first answers: null when nil.
//
//skvet:hotpath
func Results(dst []byte, rs []spatialkeyword.Result) ([]byte, bool) {
	if rs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range rs {
		r := &rs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Object":`...)
		var ok bool
		if dst, ok = object(dst, &r.Object); !ok {
			return dst, false
		}
		dst = append(dst, `,"Dist":`...)
		if dst, ok = Float(dst, r.Dist); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// Ranked appends ranked answers: null when nil.
//
//skvet:hotpath
func Ranked(dst []byte, rs []spatialkeyword.RankedResult) ([]byte, bool) {
	if rs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range rs {
		r := &rs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Object":`...)
		var ok bool
		if dst, ok = object(dst, &r.Object); !ok {
			return dst, false
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{`,"Dist":`, r.Dist}, {`,"IRScore":`, r.IRScore}, {`,"Score":`, r.Score}} {
			dst = append(dst, f.name...)
			if dst, ok = Float(dst, f.v); !ok {
				return dst, false
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// Stats appends a spatialkeyword.QueryStats: the embedded work record's
// fields, then Degraded.
//
//skvet:hotpath
func Stats(dst []byte, s *spatialkeyword.QueryStats) []byte {
	dst = append(dst, `{"NodesLoaded":`...)
	dst = strconv.AppendInt(dst, int64(s.NodesLoaded), 10)
	dst = append(dst, `,"ObjectsLoaded":`...)
	dst = strconv.AppendInt(dst, int64(s.ObjectsLoaded), 10)
	dst = append(dst, `,"FalsePositives":`...)
	dst = strconv.AppendInt(dst, int64(s.FalsePositives), 10)
	dst = append(dst, `,"EntriesPruned":`...)
	dst = strconv.AppendInt(dst, int64(s.EntriesPruned), 10)
	dst = append(dst, `,"NodesEnqueued":`...)
	dst = strconv.AppendInt(dst, int64(s.NodesEnqueued), 10)
	dst = append(dst, `,"ObjectsEnqueued":`...)
	dst = strconv.AppendInt(dst, int64(s.ObjectsEnqueued), 10)
	dst = append(dst, `,"BlocksRandom":`...)
	dst = strconv.AppendUint(dst, s.BlocksRandom, 10)
	dst = append(dst, `,"BlocksSequential":`...)
	dst = strconv.AppendUint(dst, s.BlocksSequential, 10)
	dst = append(dst, `,"Degraded":`...)
	dst = strconv.AppendBool(dst, s.Degraded)
	return append(dst, '}')
}
