package sigfile

import (
	"strings"
	"testing"
)

// FuzzNoFalseNegatives fuzzes the fundamental signature property: a
// document signature always matches the signature of any word the document
// contains, at any configuration.
func FuzzNoFalseNegatives(f *testing.F) {
	f.Add("internet pool spa", uint8(8), uint8(4), uint8(0))
	f.Add("a b c d e f g", uint8(1), uint8(1), uint8(3))
	f.Add("", uint8(16), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, doc string, lenBytes, k, pick uint8) {
		cfg := Config{
			LengthBytes: int(lenBytes%64) + 1,
			BitsPerWord: int(k%16) + 1,
		}
		words := strings.Fields(doc)
		sig := cfg.DocSignature(words)
		if len(words) == 0 {
			if !sig.IsZero() {
				t.Fatal("empty document produced non-zero signature")
			}
			return
		}
		w := words[int(pick)%len(words)]
		if !Matches(sig, cfg.WordSignature(w)) {
			t.Fatalf("false negative: %q in %q (cfg %+v)", w, doc, cfg)
		}
		// Superimposing anything preserves the match.
		bigger := sig.Clone()
		Superimpose(bigger, cfg.DocSignature([]string{"extra", "words"}))
		if !Matches(bigger, cfg.WordSignature(w)) {
			t.Fatal("superimposition broke a match")
		}
	})
}
