package core

import (
	"strings"
	"testing"
)

// The text kernels as they were before they were rewritten for speed, kept
// as the oracles the rewrites must match byte for byte.

func oracleCountChar(s string, c byte) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			n++
		}
	}
	return n
}

func oracleSwapIAm(s string) (string, int) {
	if n := strings.Count(s, "I am"); n > 0 {
		return strings.ReplaceAll(s, "I am", "This is"), n
	}
	n := strings.Count(s, "This is")
	return strings.ReplaceAll(s, "This is", "I am"), n
}

func oracleSwapCase(s string) (string, int) {
	if n := strings.Count(s, "I"); n > 0 {
		return strings.ReplaceAll(s, "I", "i"), n
	}
	n := strings.Count(s, "i")
	return strings.ReplaceAll(s, "i", "I"), n
}

func TestTextKernelsMatchOracles(t *testing.T) {
	doc, man := DocumentText(7, 1000), ManualText(1, 40000)
	docSwapped, _ := oracleSwapIAm(doc)
	manLower, _ := oracleSwapCase(man)
	inputs := []string{
		"", "x", "I", "i", "III", "iii", "Ii", "iI", "no match here",
		"I am", "This is", "I a", "This i", "I amI am", "This isThis is",
		"I am. This is. I am.", "This is. This is not. this is.",
		"xI am", "I amx", "II am", "ThThis is", "I  am",
		"h\xc3\xa9llo I am \xe2\x82\xac i \xff\x80I",
		doc, docSwapped, doc[:len(doc)-1], doc[1:],
		man, manLower, man[3:], manLower[:len(manLower)-2],
	}
	for _, in := range inputs {
		name := in
		if len(name) > 24 {
			name = name[:24] + "..."
		}
		for _, c := range []byte{'I', 'i', ' ', 0, 0x80, 0xff} {
			if got, want := CountChar(in, c), oracleCountChar(in, c); got != want {
				t.Errorf("CountChar(%q, %#x) = %d, want %d", name, c, got, want)
			}
		}
		got, n := SwapIAm(in)
		if want, wn := oracleSwapIAm(in); got != want || n != wn {
			t.Errorf("SwapIAm(%q) = %q, %d; want %q, %d", name, got, n, want, wn)
		}
		got, n = SwapCase(in)
		if want, wn := oracleSwapCase(in); got != want || n != wn {
			t.Errorf("SwapCase(%q) = %q, %d; want %q, %d", name, got, n, want, wn)
		}
	}
}
