package core

import (
	"fmt"
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

// TestDocumentTitleMatchesSprintf: the title's text has one definition,
// AppendDocumentTitle, and this is the format it replaced. Ids at every
// decimal width the appended buffer has to grow through, into an empty
// buffer, a buffer with room and one that is already in use.
func TestDocumentTitleMatchesSprintf(t *testing.T) {
	ids := []uint64{0, 1, 9, 10, 60, 99, 100, 12345, 1<<32 - 1, 1<<64 - 1}
	for _, id := range ids {
		want := fmt.Sprintf("Documentation for composite part #%d", id)
		if got := DocumentTitle(id); got != want {
			t.Errorf("DocumentTitle(%d) = %q, want %q", id, got, want)
		}
		if got := string(AppendDocumentTitle(nil, id)); got != want {
			t.Errorf("AppendDocumentTitle(nil, %d) = %q, want %q", id, got, want)
		}
		var buf [64]byte
		if got := string(AppendDocumentTitle(buf[:0], id)); got != want {
			t.Errorf("AppendDocumentTitle(buf[:0], %d) = %q, want %q", id, got, want)
		}
		if got := string(AppendDocumentTitle([]byte("x: "), id)); got != "x: "+want {
			t.Errorf("AppendDocumentTitle(%q, %d) = %q, want %q", "x: ", id, got, "x: "+want)
		}
	}
}
