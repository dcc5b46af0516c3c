package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"spatialkeyword"
)

// reference is what encoding/json's Encoder writes for v, without the
// trailing newline, or its error.
func reference(v any) (string, error) {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		return "", err
	}
	return strings.TrimSuffix(b.String(), "\n"), nil
}

// checkSame holds String, Float and the result appenders to encoding/json on
// one text and one float: the same bytes, or a refusal where it errs.
func checkSame(t *testing.T, text string, f float64) {
	t.Helper()
	if got, want := string(String([]byte("x"), text)), "x"; got[:1] != want {
		t.Fatalf("String clobbered the prefix: %q", got)
	}
	want, _ := reference(text)
	if got := string(String(nil, text)); got != want {
		t.Fatalf("String(%q) = %s, encoding/json %s", text, got, want)
	}
	want, err := reference(f)
	got, ok := Float(nil, f)
	if ok != (err == nil) || (ok && string(got) != want) {
		t.Fatalf("Float(%v) = %s, %v; encoding/json %s, %v", f, got, ok, want, err)
	}
	obj := spatialkeyword.Object{ID: uint64(len(text)), Point: []float64{f, -f}, Text: text}
	rs := []spatialkeyword.Result{{Object: obj, Dist: f}, {Object: spatialkeyword.Object{Text: text}}}
	rk := []spatialkeyword.RankedResult{{Object: obj, Dist: 1, IRScore: f, Score: f / 3}}
	for _, c := range []struct {
		v      any
		append func() ([]byte, bool)
	}{
		{rs, func() ([]byte, bool) { return Results(nil, rs) }},
		{rk, func() ([]byte, bool) { return Ranked(nil, rk) }},
		{[]spatialkeyword.Result(nil), func() ([]byte, bool) { return Results(nil, nil) }},
		{[]string{text, ""}, func() ([]byte, bool) { return Strings(nil, []string{text, ""}), true }},
	} {
		want, err := reference(c.v)
		got, ok := c.append()
		if ok != (err == nil) || (ok && string(got) != want) {
			t.Fatalf("%T: appended %s, %v; encoding/json %s, %v", c.v, got, ok, want, err)
		}
	}
}

// TestAppendMatchesEncodingJSON runs the cases an answer's text and scores
// can hit: HTML, control and escaped bytes at every position of an 8-byte
// word, multi-byte and invalid UTF-8, U+2028/U+2029, and floats at the 'e'
// form's edges, negative zero and the non-finite values JSON refuses.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	texts := []string{"", "plain hotel text", `<a href="x">&amp;</a>`, "tab\tnew\nline\r\b\f\x00\x1f\x7f",
		"caf\u00e9 \u2028 \u2029 \U0001F600", "bad \xff\xfe utf8 \xe2\x80", "back\\slash \"quote\""}
	for pos := 0; pos < 17; pos++ {
		for _, c := range []string{"<", ">", "&", "\"", "\\", "\x01", "\u00e9", "\xff", "\u2028"} {
			texts = append(texts, strings.Repeat("a", pos)+c+strings.Repeat("b", 16-pos))
		}
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125,
		-2.5e-9, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for i, text := range texts {
		for j, f := range floats {
			if (i+j)%3 == 0 || i < 7 {
				checkSame(t, text, f)
			}
		}
	}
}

// FuzzAppendJSON holds the appenders to encoding/json on any text and float,
// errors included.
func FuzzAppendJSON(f *testing.F) {
	f.Add("Hotel <b>&</b> \u2028", 1.5e-7)
	f.Add("\xff\x00\"\\", math.Inf(1))
	f.Add("caf\u00e9 spa pool", 12345.678)
	f.Fuzz(func(t *testing.T, text string, v float64) {
		checkSame(t, text, v)
	})
}
