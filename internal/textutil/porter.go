package textutil

// Porter stemming (M.F. Porter, "An algorithm for suffix stripping",
// Program 14(3), 1980) — the classic IR normalization step referenced by
// the paper's IR background [Sin01]. Stemming conflates inflected forms
// ("fishing", "fished", "fisher" → "fish"), which for this library means a
// query keyword matches every inflection of the indexed words: fewer
// distinct terms in signatures and posting lists, at the price of some
// precision. The Analyzer type (analyzer.go) makes it an opt-in stage.

// Stem returns the Porter stem of a single lowercase word. Words of length
// <= 2 are returned unchanged, per the algorithm.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	return string(stem([]byte(word)))
}

// stem runs the Porter steps over w, a lowercase word longer than two
// bytes, and returns the stem: a prefix of w's array unless a step's longer
// replacement outgrew it.
func stem(w []byte) []byte {
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	return step5b(w)
}

// isConsonant reports whether w[i] is a consonant in Porter's sense:
// a, e, i, o, u are vowels; y is a vowel when preceded by a consonant.
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	default:
		return true
	}
}

// measure returns m, the number of vowel-consonant sequences in w[:upTo]:
// [C](VC)^m[V].
func measure(w []byte, upTo int) int {
	m := 0
	i := 0
	// Skip initial consonants.
	for i < upTo && isConsonant(w, i) {
		i++
	}
	for i < upTo {
		// In a vowel run.
		for i < upTo && !isConsonant(w, i) {
			i++
		}
		if i >= upTo {
			break
		}
		m++
		for i < upTo && isConsonant(w, i) {
			i++
		}
	}
	return m
}

// hasVowel reports whether w[:upTo] contains a vowel.
func hasVowel(w []byte, upTo int) bool {
	for i := 0; i < upTo; i++ {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleC reports whether w ends with a double consonant.
func endsDoubleC(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports whether w[:upTo] ends consonant-vowel-consonant with the
// final consonant not w, x, or y.
func endsCVC(w []byte, upTo int) bool {
	if upTo < 3 {
		return false
	}
	i := upTo - 1
	if !isConsonant(w, i) || isConsonant(w, i-1) || !isConsonant(w, i-2) {
		return false
	}
	switch w[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether w ends in s.
func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// replaceSuffix returns w with suffix old replaced by new (caller must have
// checked hasSuffix).
func replaceSuffix(w []byte, old, new string) []byte {
	return append(w[:len(w)-len(old)], new...)
}

// stemRoot returns the length of w without the given suffix.
func stemRoot(w []byte, suffix string) int { return len(w) - len(suffix) }

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return replaceSuffix(w, "sses", "ss")
	case hasSuffix(w, "ies"):
		return replaceSuffix(w, "ies", "i")
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w, stemRoot(w, "eed")) > 0 {
			return w[:len(w)-1] // eed -> ee
		}
		return w
	}
	applied := false
	switch {
	case hasSuffix(w, "ed") && hasVowel(w, stemRoot(w, "ed")):
		w = w[:len(w)-2]
		applied = true
	case hasSuffix(w, "ing") && hasVowel(w, stemRoot(w, "ing")):
		w = w[:len(w)-3]
		applied = true
	}
	if !applied {
		return w
	}
	switch {
	case hasSuffix(w, "at"):
		return append(w, 'e') // at -> ate
	case hasSuffix(w, "bl"):
		return append(w, 'e') // bl -> ble
	case hasSuffix(w, "iz"):
		return append(w, 'e') // iz -> ize
	case endsDoubleC(w):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
		return w
	case measure(w, len(w)) == 1 && endsCVC(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w, len(w)-1) {
		w[len(w)-1] = 'i'
	}
	return w
}

// suffixRule is one (suffix -> replacement) rule applied when the stem's
// measure passes the step's threshold.
type suffixRule struct{ from, to string }

// applyRules applies the first matching rule whose root measure exceeds
// minM; ok reports whether any rule matched (regardless of the measure).
func applyRules(w []byte, rules []suffixRule, minM int) []byte {
	for _, r := range rules {
		if hasSuffix(w, r.from) {
			if measure(w, stemRoot(w, r.from)) > minM {
				return replaceSuffix(w, r.from, r.to)
			}
			return w
		}
	}
	return w
}

var step2Rules = []suffixRule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte { return applyRules(w, step2Rules, 0) }

var step3Rules = []suffixRule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte { return applyRules(w, step3Rules, 0) }

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		root := stemRoot(w, s)
		if measure(w, root) <= 1 {
			return w
		}
		if s == "ion" {
			// Only strip -ion after s or t.
			if root == 0 || (w[root-1] != 's' && w[root-1] != 't') {
				return w
			}
		}
		return w[:root]
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	root := len(w) - 1
	m := measure(w, root)
	if m > 1 || (m == 1 && !endsCVC(w, root)) {
		return w[:root]
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w, len(w)) > 1 && endsDoubleC(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
