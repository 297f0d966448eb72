package trace

import (
	"strings"
	"testing"
)

// validPathByteScan is the byte loop validPath replaced, kept as the
// reference its word-at-a-time scan is fuzzed against.
func validPathByteScan(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n':
			return false
		}
	}
	return true
}

// FuzzValidPathMatchesByteScan holds validPath to the byte loop on every
// path. The seeds put each separator at every offset of the first two
// words and its tail, cover every length around a word, and carry the
// bytes that differ from a separator only in the high bit (0xA0, 0x89,
// 0x8A), which a borrow-only zero test would wrongly refuse.
func FuzzValidPathMatchesByteScan(f *testing.F) {
	f.Add("")
	for _, sep := range []byte{' ', '\t', '\n'} {
		for off := 0; off <= 16; off++ {
			b := []byte(strings.Repeat("a", 17))
			b[off] = sep
			f.Add(string(b))
		}
	}
	for n := 1; n <= 17; n++ {
		f.Add(strings.Repeat("/", n))
	}
	f.Add("/mss/\xa0\x89\x8a/\x89\x8a\xa0\x80\xff\x01\x1f\x21\x08\x0b")
	f.Add(strings.Repeat("\xa0\x89\x8a", 6))
	f.Add("\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := validPath(s), validPathByteScan(s); got != want {
			t.Fatalf("validPath(%q) = %v, byte scan says %v", s, got, want)
		}
	})
}
