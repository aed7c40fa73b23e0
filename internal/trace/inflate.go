package trace

import (
	"encoding/binary"
	"io"
	"math/bits"
)

// The read side's DEFLATE (RFC 1951) decoder. Every compressed byte the
// reader meets is one slice-to-slice inflate: a v3 segment payload, or one
// stored v4 column run, decoded straight from the payload slab into the raw
// slab with no io.Reader, no window copy and no per-stream allocation. The
// writer still codes with compress/flate; this decoder answers every
// stream exactly as compress/flate's reader would under the reader's rule
// (fill dst, then refuse one more byte): the same bytes, the same
// accept/reject decision, and the same truncated-versus-corrupt verdict —
// inflate_test.go checks it against that oracle.
//
// Decoding is table driven. A block's literal/length and distance codes
// are turned into lookup tables indexed by the next rootBits bits of the
// stream; a code longer than that continues in a subtable packed behind
// the root table. Each entry holds the decoded meaning of one code —
// literal byte, length or distance base with its extra-bit count, end of
// block, or a link — and the code's full length in bits.

const (
	maxCodeBits  = 15  // longest Huffman code DEFLATE allows
	numLitSyms   = 286 // literal/length symbols a dynamic block may define
	numDistSyms  = 30  // distance symbols a dynamic block may define
	numClenSyms  = 19  // code-length code symbols
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7 // the code-length code is at most 7 bits long: no subtables

	// A subtable of depth d holds 2^d entries and, because the code is
	// complete, at least d+1 symbols; 2^d/(d+1) grows with d, so n symbols
	// need at most n·2^D/(D+1) subtable entries, D = maxCodeBits-rootBits.
	// The fixed codes (288 and 32 symbols) fit in their root tables.
	litTableLen  = 1<<litRootBits + numLitSyms*(1<<(maxCodeBits-litRootBits))/(maxCodeBits-litRootBits+1)
	distTableLen = 1<<distRootBits + numDistSyms*(1<<(maxCodeBits-distRootBits))/(maxCodeBits-distRootBits+1)
)

// Table entry layout: bits 0–3 the code length (0 for a bit pattern no
// code reaches), bits 4–7 the kind, bits 8–15 the extra-bit count (for a
// link: the subtable's index width), bits 16–31 the value (literal byte,
// length or distance base, code-length symbol, or subtable offset).
const (
	kindMask = 0xf0
	kindLit  = 0x00 // literal byte (or a code-length code symbol)
	kindLen  = 0x10 // length or distance: base plus extra bits
	kindEnd  = 0x20 // end of block
	kindSub  = 0x30 // link to a subtable
	kindBad  = 0x40 // no code, or a symbol with no meaning (length 286–287, distance 30–31)
)

// inflateError is a DEFLATE stream defect.
type inflateError string

func (e inflateError) Error() string { return "inflate: " + string(e) }

const (
	// errOverflow: the stream holds more than len(dst) bytes.
	errOverflow      inflateError = "stream inflates past its declared length"
	errNoOutput      inflateError = "stream ends before its first byte"
	errBlockType     inflateError = "reserved block type"
	errStoredLen     inflateError = "stored block length fails its complement check"
	errDynamicHeader inflateError = "malformed dynamic block header"
	errBadCodeSet    inflateError = "Huffman code over- or under-subscribed"
	errBadSymbol     inflateError = "invalid Huffman code or symbol"
	errDistance      inflateError = "distance reaches before the start of output"
)

// Per-symbol entries, code length left 0: literal/length (the fixed code's
// 288 symbols), distance (the fixed code's 32), code-length code.
var litSyms, distSyms, clenSyms = func() (lit [288]uint32, dist [32]uint32, clen [numClenSyms]uint32) {
	for s := range 256 {
		lit[s] = kindLit | uint32(s)<<16
	}
	lit[256] = kindEnd
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = kindLen | extra<<8 | base<<16
		base += 1 << extra
	}
	lit[285] = kindLen | 258<<16
	lit[286], lit[287] = kindBad, kindBad
	base = 1
	for s := 0; s < numDistSyms; s++ {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s-2) / 2
		}
		dist[s] = kindLen | extra<<8 | base<<16
		base += 1 << extra
	}
	dist[30], dist[31] = kindBad, kindBad
	for s := range clen {
		clen[s] = kindLit | uint32(s)<<16
	}
	return
}()

// fixedLit and fixedDist are the fixed-Huffman block's tables (RFC 1951
// §3.2.6); their shortest codes are 7 and 5 bits.
var fixedLit, fixedDist = func() (lit *[litTableLen]uint32, dist *[distTableLen]uint32) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	lit, dist = new([litTableLen]uint32), new([distTableLen]uint32)
	buildTable(lit[:], litRootBits, lens[:], litSyms[:])
	for s := range 32 {
		lens[s] = 5
	}
	buildTable(dist[:], distRootBits, lens[:32], distSyms[:])
	return lit, dist
}()

// inflater is one decoder's scratch: the current dynamic block's tables
// and code lengths. Nothing else is allocated per stream.
type inflater struct {
	lit  [litTableLen]uint32
	dist [distTableLen]uint32
	clen [1 << clenRootBits]uint32
	lens [numLitSyms + numDistSyms]uint8
}

// buildTable fills t with the decode table of the canonical Huffman code
// whose per-symbol code lengths are lens (0: symbol unused); syms[s] is
// symbol s's entry without its length. It returns the shortest code length
// and whether compress/flate accepts the code: a complete one, the single
// one-bit code, or the empty code — the last two decode some or all bit
// patterns to kindBad.
func buildTable(t []uint32, rootBits uint, lens []uint8, syms []uint32) (minLen uint, ok bool) {
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := uint(0)
	for l := uint(1); l <= maxCodeBits; l++ {
		if count[l] != 0 {
			if minLen == 0 {
				minLen = l
			}
			maxLen = l
		}
	}
	space := 0 // code space used, in units of the longest code
	for l := uint(1); l <= maxLen; l++ {
		space = space<<1 + count[l]
	}
	complete := space == 1<<maxLen
	if !complete && !(space == 1 && maxLen == 1) && maxLen != 0 {
		return 0, false
	}
	root := t[:1<<rootBits]
	if !complete {
		for i := range root {
			root[i] = kindBad
		}
	}
	if maxLen == 0 {
		return 0, true
	}

	// Visit the symbols in canonical order — by code length, then symbol —
	// so each code is one more than the last, shifted left at each longer
	// length, and the codes sharing a root prefix come consecutively.
	var order [288]uint16
	var offs [maxCodeBits + 2]int
	for l := 1; l <= maxCodeBits; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	for s, l := range lens {
		if l != 0 {
			order[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	rootMask := 1<<rootBits - 1
	code, codeLen := 0, minLen
	next := 1 << rootBits // first free subtable slot
	prefix, subOff, subBits := -1, 0, uint(0)
	for _, s := range order[:offs[maxLen]] {
		l := uint(lens[s])
		code <<= l - codeLen
		codeLen = l
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l)) // streams store codes first bit lowest
		e := syms[s] | uint32(l)
		if l <= rootBits {
			for i := rev; i < len(root); i += 1 << l {
				root[i] = e
			}
		} else {
			if p := rev & rootMask; p != prefix {
				// A new root prefix: its subtable is as deep as the codes
				// still to come under it need, found by filling the
				// prefix's code space with them level by level (zlib's
				// inflate_table does the same).
				prefix, subBits = p, l-rootBits
				for left := 1 << subBits; subBits+rootBits < maxLen; subBits++ {
					if left -= count[subBits+rootBits]; left <= 0 {
						break
					}
					left <<= 1
				}
				subOff = next
				next += 1 << subBits
				root[p] = kindSub | uint32(subBits)<<8 | uint32(subOff)<<16
			}
			for i := rev >> rootBits; i < 1<<subBits; i += 1 << (l - rootBits) {
				t[subOff+i] = e
			}
		}
		count[l]-- // count now holds the codes not yet placed
		code++
	}
	return minLen, true
}

// bitReader reads a DEFLATE stream's bits, first bit lowest. b holds nb
// bits of the stream; above them it holds either the stream's next bits or
// zeros (past the end of src), so a table lookup may run past nb, and only
// a code longer than nb has read beyond the input.
type bitReader struct {
	src []byte
	pos int // next byte of src not counted in nb
	b   uint64
	nb  uint
}

// fill tops the bit buffer up to at least 56 bits, or to every bit left.
// Bits above nb already in b are the stream's own, so OR-ing a whole word
// over them is harmless.
func fill(src []byte, pos int, b uint64, nb uint) (int, uint64, uint) {
	if pos+8 <= len(src) {
		return pos + int(63-nb)>>3, b | binary.LittleEndian.Uint64(src[pos:])<<nb, nb | 56
	}
	for nb <= 56 && pos < len(src) {
		b |= uint64(src[pos]) << nb
		pos++
		nb += 8
	}
	return pos, b, nb
}

// need reports whether n more bits are in the stream, buffering them.
func (br *bitReader) need(n uint) bool {
	if br.nb < n {
		br.pos, br.b, br.nb = fill(br.src, br.pos, br.b, br.nb)
	}
	return br.nb >= n
}

// take consumes n buffered bits and returns them.
func (br *bitReader) take(n uint) uint32 {
	v := uint32(br.b & (1<<n - 1))
	br.b >>= n
	br.nb -= n
	return v
}

// sym decodes one symbol through table t. A stream with fewer than minLen
// bits left is truncated before the table is consulted — compress/flate's
// order, which makes the empty code corrupt even at the end of input.
func (br *bitReader) sym(t []uint32, rootBits, minLen uint) (uint32, error) {
	if !br.need(maxCodeBits) && br.nb < minLen {
		return 0, io.ErrUnexpectedEOF
	}
	e := t[br.b&(1<<rootBits-1)]
	if e&kindMask == kindSub {
		e = t[e>>16+uint32(br.b>>rootBits)&(1<<(e>>8&0xff)-1)]
	}
	n := uint(e & 0xf)
	if n > br.nb {
		return 0, io.ErrUnexpectedEOF
	}
	if e&kindMask == kindBad {
		return 0, errBadSymbol
	}
	br.take(n)
	return e, nil
}

// inflate decodes the DEFLATE stream src into dst and returns how many
// bytes it wrote. It stops as soon as the stream would write past dst: a
// caller after a prefix gets dst full and errOverflow, a caller after the
// whole stream treats errOverflow as the stream being too long. The
// verdict follows the reader's rule for a stream declared to inflate to
// len(dst) bytes:
//
//   - n == len(dst), nil: the stream fills dst; what follows its last
//     byte is not validated, unless it yields one more byte;
//   - n == len(dst), errOverflow: it yields more;
//   - n < len(dst): a defect (io.ErrUnexpectedEOF when the input runs
//     out), or a stream that ends early — io.ErrUnexpectedEOF after some
//     bytes, errNoOutput before any.
//
// No byte is decoded from bits past the end of src, and the work is
// bounded by len(src)+len(dst): every step consumes input or writes output.
func (f *inflater) inflate(dst, src []byte) (int, error) {
	br := bitReader{src: src}
	o := 0
	var err error
	for final := false; !final && err == nil; {
		if !br.need(3) {
			err = io.ErrUnexpectedEOF
			break
		}
		final = br.take(1) == 1
		switch br.take(2) {
		case 0:
			o, err = br.stored(dst, o)
		case 1:
			o, err = codes(&br, dst, o, fixedLit, fixedDist, 7, 5)
		case 2:
			var litMin, distMin uint
			if litMin, distMin, err = f.readDynamic(&br); err == nil {
				o, err = codes(&br, dst, o, &f.lit, &f.dist, litMin, distMin)
			}
		default:
			err = errBlockType
		}
	}
	switch {
	case o == len(dst) && err != errOverflow:
		return o, nil
	case err != nil:
		return o, err
	case o == 0:
		return 0, errNoOutput
	default:
		return o, io.ErrUnexpectedEOF
	}
}

// stored copies a stored block's bytes into dst[o:].
func (br *bitReader) stored(dst []byte, o int) (int, error) {
	// The block starts at the next byte boundary; give back the whole
	// bytes buffered beyond it.
	br.pos -= int(br.nb >> 3)
	br.b, br.nb = 0, 0
	if len(br.src)-br.pos < 4 {
		return o, io.ErrUnexpectedEOF
	}
	hdr := br.src[br.pos:]
	n, nn := binary.LittleEndian.Uint16(hdr), binary.LittleEndian.Uint16(hdr[2:])
	br.pos += 4
	if nn != ^n {
		return o, errStoredLen
	}
	in := br.src[br.pos:]
	m := min(int(n), len(in))
	if m > len(dst)-o {
		return o + copy(dst[o:], in), errOverflow
	}
	copy(dst[o:], in[:m])
	br.pos += m
	if m < int(n) {
		return o + m, io.ErrUnexpectedEOF
	}
	return o + m, nil
}

// codeOrder is the order a dynamic block lists the code-length code's
// lengths in.
var codeOrder = [numClenSyms]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readDynamic reads a dynamic block's header into f's tables and returns
// the shortest literal/length code — raised to the end-of-block code's
// length, as compress/flate does, since every block must end with it — and
// the shortest distance code. The checks run in compress/flate's order, so
// a defect and a truncation meet the same verdict.
func (f *inflater) readDynamic(br *bitReader) (litMin, distMin uint, err error) {
	if !br.need(14) {
		return 0, 0, io.ErrUnexpectedEOF
	}
	nlit := int(br.take(5)) + 257
	ndist := int(br.take(5)) + 1
	nclen := int(br.take(4)) + 4
	if nlit > numLitSyms || ndist > numDistSyms {
		return 0, 0, errDynamicHeader
	}
	var clens [numClenSyms]uint8
	for _, s := range codeOrder[:nclen] {
		if !br.need(3) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		clens[s] = uint8(br.take(3))
	}
	clenMin, ok := buildTable(f.clen[:], clenRootBits, clens[:], clenSyms[:])
	if !ok {
		return 0, 0, errBadCodeSet
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := br.sym(f.clen[:], clenRootBits, clenMin)
		if err != nil {
			return 0, 0, err
		}
		s := e >> 16
		if s < 16 {
			lens[i] = uint8(s)
			i++
			continue
		}
		rep, extra, l := 3, uint(2), uint8(0)
		switch s {
		case 16:
			if i == 0 {
				return 0, 0, errDynamicHeader
			}
			l = lens[i-1]
		case 17:
			extra = 3
		default:
			rep, extra = 11, 7
		}
		if !br.need(extra) {
			return 0, 0, io.ErrUnexpectedEOF
		}
		rep += int(br.take(extra))
		if i+rep > len(lens) {
			return 0, 0, errDynamicHeader
		}
		for end := i + rep; i < end; i++ {
			lens[i] = l
		}
	}
	if litMin, ok = buildTable(f.lit[:], litRootBits, lens[:nlit], litSyms[:]); !ok {
		return 0, 0, errBadCodeSet
	}
	if distMin, ok = buildTable(f.dist[:], distRootBits, lens[nlit:], distSyms[:]); !ok {
		return 0, 0, errBadCodeSet
	}
	return max(litMin, uint(lens[256])), distMin, nil
}

// codes decodes one Huffman-coded block's symbols into dst[o:] through its
// end-of-block code, returning the new output length. It keeps the bit
// buffer in locals and refills only when fewer bits remain than the next
// step could need, so several literals decode per refill. A stream with
// fewer than litMin (distMin) bits left is truncated before the table is
// consulted, as in bitReader.sym.
func codes(br *bitReader, dst []byte, o int, lt *[litTableLen]uint32, dt *[distTableLen]uint32, litMin, distMin uint) (int, error) {
	src, pos, b, nb := br.src, br.pos, br.b, br.nb
	var err error
	for {
		if nb < maxCodeBits {
			pos, b, nb = fill(src, pos, b, nb)
		}
		e := lt[b&(1<<litRootBits-1)]
		if e&kindMask == kindSub {
			e = lt[e>>16+uint32(b>>litRootBits)&(1<<(e>>8&0xff)-1)]
		}
		n := uint(e & 0xf)
		if nb < litMin || n > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		b >>= n
		nb -= n
		if e&kindMask == kindLit {
			if uint(o) >= uint(len(dst)) {
				err = errOverflow
				break
			}
			dst[o] = byte(e >> 16)
			o++
			continue
		}
		if e&kindMask == kindEnd {
			break
		}
		if e&kindMask == kindBad {
			err = errBadSymbol
			break
		}

		// A length: its extra bits, then the distance code and its extra
		// bits — at most 5+15+13 bits.
		if nb < 33 {
			pos, b, nb = fill(src, pos, b, nb)
		}
		extra := uint(e>>8) & 0xff
		if extra > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		length := int(e>>16) + int(b&(1<<extra-1))
		b >>= extra
		nb -= extra
		e = dt[b&(1<<distRootBits-1)]
		if e&kindMask == kindSub {
			e = dt[e>>16+uint32(b>>distRootBits)&(1<<(e>>8&0xff)-1)]
		}
		n = uint(e & 0xf)
		if nb < distMin || n > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		b >>= n
		nb -= n
		if e&kindMask == kindBad {
			err = errBadSymbol
			break
		}
		extra = uint(e>>8) & 0xff
		if extra > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		dist := int(e>>16) + int(b&(1<<extra-1))
		b >>= extra
		nb -= extra
		if dist > o {
			err = errDistance
			break
		}
		end := o + length
		if end > len(dst) {
			end, err = len(dst), errOverflow
		}
		if dist >= length {
			copy(dst[o:end], dst[o-dist:])
			o = end
		} else {
			// The match overlaps its own output: it repeats the last dist
			// bytes. Copy the growing repeated prefix onto itself, doubling
			// each time, so the source never overlaps the destination.
			start := o - dist
			for o < end {
				o += copy(dst[o:end], dst[start:o])
			}
		}
		if err != nil {
			break
		}
	}
	br.pos, br.b, br.nb = pos, b, nb
	return o, err
}
