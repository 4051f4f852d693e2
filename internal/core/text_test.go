package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
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

// oracleSwapCaseLoop is SwapCase as it stood before it went eight bytes at a
// time: find the first match, copy, flip byte by byte from there.
func oracleSwapCaseLoop(s string) (string, int) {
	from := byte('I')
	i := strings.IndexByte(s, from)
	if i < 0 {
		from = 'i'
		if i = strings.IndexByte(s, from); i < 0 {
			return s, 0
		}
	}
	buf := []byte(s)
	n := 0
	for ; i < len(buf); i++ {
		if buf[i] == from {
			buf[i] ^= 'I' ^ 'i'
			n++
		}
	}
	return string(buf), n
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

// TestSwapCaseMatchesByteLoop holds the eight-bytes-at-a-time SwapCase to
// the loop it replaced, text and count, on every way an input can sit across
// the kernel's words: each length from 0 to 40 with the first match at each
// of a word's eight offsets, matches that continue to the end and a match
// only in the last 1-7 bytes (the byte-loop tail), one case only, the other
// only, both and neither; the bytes an inexact zero-byte test would flip
// ('I' and 'i' with the top bit set, and their neighbours); random bytes;
// and the manual itself, lowered and then there and back twice.
func TestSwapCaseMatchesByteLoop(t *testing.T) {
	check := func(in string) string {
		t.Helper()
		got, n := SwapCase(in)
		if want, wn := oracleSwapCaseLoop(in); got != want || n != wn {
			t.Fatalf("SwapCase(%q) = %q, %d; want %q, %d", in, got, n, want, wn)
		}
		return got
	}
	for length := 0; length <= 40; length++ {
		check(strings.Repeat("x", length))
		for first := 0; first < 8 && first < length; first++ {
			for _, c := range []byte{'I', 'i'} {
				other := c ^ 'I' ^ 'i'
				one := []byte(strings.Repeat("x", length))
				one[first] = c
				check(string(one))
				every3, mixed := bytes.Clone(one), bytes.Clone(one)
				for p := first; p < length; p += 3 {
					every3[p] = c
					mixed[p] = c
					if p+1 < length {
						mixed[p+1] = other
					}
				}
				check(string(every3))
				check(string(mixed))
				check(strings.Repeat("x", first) + strings.Repeat(string(c), length-first))
			}
		}
		for last := 1; last <= 7 && last <= length; last++ {
			tail := []byte(strings.Repeat("x", length))
			tail[length-last] = 'i'
			check(string(tail))
			tail[length-last] = 'I'
			check(string(tail))
		}
	}

	// 0xC9 and 0xE9 are 'I' and 'i' with the top bit set; 'H', 'J', 'h' and
	// 'j' differ from them in the lowest bit or two, and an 'H' right above
	// an 'I' is what a zero-byte test that borrows flags falsely. None may
	// change or count.
	near := "\xc9\xe9HJhj\x09\x29\x00\x80\xff"
	for _, c := range []string{"I", "i", ""} {
		for pad := 0; pad < 8; pad++ {
			check(strings.Repeat("\xc9", pad) + c + "Hh" + near + near + c + "Hh\xe9\xc9")
		}
	}
	r := rng.New(20261002)
	for range 2000 {
		b := make([]byte, r.Intn(100))
		for i := range b {
			if r.Intn(4) == 0 {
				b[i] = "Ii\xc9\xe9"[r.Intn(4)]
			} else {
				b[i] = byte(r.Intn(256))
			}
		}
		check(string(b))
	}

	man := ManualText(1, 40000)
	for _, in := range []string{man, man[5:], man[:len(man)-3]} {
		// The manual has both cases, so its first swap only lowers; from
		// there on the text is all one case and two swaps are the identity.
		lower := check(in)
		if strings.IndexByte(lower, 'I') >= 0 {
			t.Fatal("an 'I' survived the swap to lower case")
		}
		for range 2 {
			upper := check(lower)
			if strings.IndexByte(upper, 'i') >= 0 {
				t.Fatal("an 'i' survived the swap to upper case")
			}
			if back := check(upper); back != lower {
				t.Fatal("swapping there and back is not the identity")
			}
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
