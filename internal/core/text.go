package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"unsafe"
)

// Document and manual texts follow the OO7 convention: a repeated template
// beginning with "I am" — which is what the text operations look for. T4
// counts 'I' characters, T5 and ST7 swap "I am" <-> "This is", OP4 counts
// 'I' in the manual, OP5 compares first and last characters, OP11 swaps
// 'I' <-> 'i' in the manual.

// docTemplate deliberately contains "I am" and capital 'I' characters.
const docTemplate = "I am the documentation for composite part #%d. I describe its atomic parts and their interconnections. "

// manualTemplate likewise. Its first character is 'I'.
const manualTemplate = "I am the manual for module #%d. I list assembly instructions In tedIous detaIl. "

// repeatToSize tiles template until the result is exactly size bytes.
func repeatToSize(template string, size int) string {
	if size <= 0 {
		return ""
	}
	n := size/len(template) + 1
	return strings.Repeat(template, n)[:size]
}

// DocumentText builds the initial text for composite part id.
func DocumentText(id uint64, size int) string {
	return repeatToSize(fmt.Sprintf(docTemplate, id), size)
}

// ManualText builds the initial manual text for module id.
func ManualText(id uint64, size int) string {
	return repeatToSize(fmt.Sprintf(manualTemplate, id), size)
}

// AppendDocumentTitle appends the (immutable, indexed) title of the document
// of composite part id to dst. ST4 regenerates titles from random composite
// ids, a hundred per call, into a buffer on its stack.
func AppendDocumentTitle(dst []byte, id uint64) []byte {
	return strconv.AppendUint(append(dst, "Documentation for composite part #"...), id, 10)
}

// DocumentTitle is the title AppendDocumentTitle builds, as a string.
func DocumentTitle(id uint64) string {
	return string(AppendDocumentTitle(make([]byte, 0, 64), id))
}

// CountChar returns the number of occurrences of c in s (T4, OP4).
func CountChar(s string, c byte) int {
	// A one-byte substring takes strings.Count's vectorised byte counter.
	return strings.Count(s, string([]byte{c}))
}

// SwapIAm replaces every "I am" with "This is" or, if there is no "I am",
// every "This is" with "I am". It returns the new text and the number of
// replacements (T5, ST7). The text is scanned once to count — the result's
// exact size is needed up front for it to be the only allocation — and once
// to build.
func SwapIAm(s string) (string, int) {
	from, to := "I am", "This is"
	n := strings.Count(s, from)
	if n == 0 {
		from, to = to, from
		if n = strings.Count(s, from); n == 0 {
			return s, 0
		}
	}
	var b strings.Builder
	b.Grow(len(s) + n*(len(to)-len(from)))
	for range n {
		i := strings.Index(s, from)
		b.WriteString(s[:i])
		b.WriteString(to)
		s = s[i+len(from):]
	}
	b.WriteString(s)
	return b.String(), n
}

// SwapCase replaces every 'I' with 'i' or, if there is no 'I', every 'i'
// with 'I'. It returns the new text and the number of changes (OP11): one
// pass over one copy of the text, which is the only allocation. The pass
// takes eight bytes at a time — the manual is 40 KB and OP11 holds it
// written (or locked) for as long as this takes.
func SwapCase(s string) (string, int) {
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
	const low7 = 0x7f7f7f7f7f7f7f7f
	each := uint64(from) * 0x0101010101010101
	for ; i+8 <= len(buf); i += 8 {
		w := binary.LittleEndian.Uint64(buf[i:])
		// x has a zero byte where w has from. m has 0x80 in exactly those
		// bytes: the sum's top bit says a byte's low seven bits are not all
		// zero, x's own says its eighth is not, and adding 0x7f to at most
		// 0x7f never carries into the next byte, so the test is exact for
		// every byte value.
		x := w ^ each
		m := ^(((x & low7) + low7) | x | low7)
		n += bits.OnesCount64(m)
		binary.LittleEndian.PutUint64(buf[i:], w^m>>2) // 0x80>>2 is 'I'^'i'
	}
	for ; i < len(buf); i++ {
		if buf[i] == from {
			buf[i] ^= 'I' ^ 'i'
			n++
		}
	}
	// buf is not written again, so it can be the string's storage.
	return unsafe.String(&buf[0], len(buf)), n
}
