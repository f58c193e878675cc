package storage

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// Byte-oriented encoding primitives for the compressed (v3) segment block
// format: bounds-checked varint column reading and skipping, fixed-width
// bit-packing for dictionary indexes and operation codes, and a small
// dependency-free LZ codec for the final byte stream. Everything here
// decodes defensively — a malformed input yields an error, never a panic or
// an unbounded allocation — because segment blocks are checksummed but the
// checksum is itself on-disk data the fuzzer mutates.

// errCodec reports a structurally malformed encoded block; callers wrap it
// into an ErrSegmentCorrupt via corruptf.
var errCodec = errors.New("malformed encoded block")

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintEnds has the high bit of every byte set: a varint's last byte is the
// one whose high bit is clear, so ^word&varintEnds marks the codes that end
// inside an 8-byte word.
const varintEnds = 0x8080808080808080

// readUvarints decodes len(out) uvarints from buf starting at off, storing
// each value's bits in out, and returns the offset after the last one. It
// loads a word, finds every code that ends inside it from the terminator
// mask, and extracts those of up to four bytes — nearly every delta and
// residual a block holds — from the register, so neither a branch on the
// code's length nor a load sits between one code and the next. Longer
// codes, and the last few bytes of buf, go through binary.Uvarint, which
// also rejects overlong and overflowing codes. ok is false when buf ends
// first or a code is malformed.
func readUvarints(buf []byte, off int, out []int64) (next int, ok bool) {
	for i := 0; i < len(out); {
		if off+8 <= len(buf) {
			w := binary.LittleEndian.Uint64(buf[off:])
			ends := ^w & varintEnds
			start := 0 // bit offset in w of the next undecoded code
			for ends != 0 && i < len(out) {
				last := bits.TrailingZeros64(ends) // bit 7 of the code's last byte
				if last-start >= 32 {
					break
				}
				x := w >> start & (1<<(last-start) - 1)
				out[i] = int64(x&0x7F | x>>1&0x3F80 | x>>2&0x1FC000 | x>>3&0xFE00000)
				i++
				start = last + 1
				ends &= ends - 1
			}
			if start != 0 {
				off += start >> 3
				continue
			}
		}
		if off >= len(buf) {
			return off, false
		}
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return off, false
		}
		out[i] = int64(v)
		i++
		off += n
	}
	return off, true
}

// skipVarints returns the offset after the n varints starting at off without
// decoding them: it counts terminator bytes a word at a time and finishes
// bytewise inside the word that holds the n-th. Code values are not looked
// at, so an overlong code passes here and is caught only if its column is
// ever decoded. ok is false when buf ends before n codes do.
func skipVarints(buf []byte, off, n int) (next int, ok bool) {
	for off+8 <= len(buf) {
		ends := bits.OnesCount64(^binary.LittleEndian.Uint64(buf[off:]) & varintEnds)
		if ends >= n {
			break
		}
		n -= ends
		off += 8
	}
	for n > 0 {
		if off >= len(buf) {
			return off, false
		}
		if buf[off] < 0x80 {
			n--
		}
		off++
	}
	return off, true
}

// appendPacked appends vals (each offset by -base) as width-bit
// little-endian codes. width 0 appends nothing: every value equals base.
func appendPacked(dst []byte, vals []uint32, base uint32, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	accBits := 0
	for _, v := range vals {
		acc |= uint64(v-base) << accBits
		accBits += width
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// packedAt returns the i-th width-bit code of a column written by
// appendPacked, read straight from its bit offset. col must start at the
// column's first byte and reach at least to the column's end; it may run on
// into whatever follows (the probe loads a whole word where one is left and
// masks the excess away). width 0 yields 0: every value equals the base.
func packedAt(col []byte, i, width int) uint32 {
	bit := i * width
	p := bit >> 3
	var w uint64
	if p+8 <= len(col) {
		w = binary.LittleEndian.Uint64(col[p:])
	} else {
		for k, b := range col[p:] {
			w |= uint64(b) << (8 * k)
		}
	}
	return uint32(w >> (bit & 7) & (1<<width - 1))
}

// LZ codec. Token stream: a control byte 0x00..0x7F introduces a literal
// run of (ctrl+1) bytes; 0x80..0xFF a back-reference of length
// (ctrl&0x7F)+lzMinMatch, followed by the uvarint distance (>= 1) back from
// the current output position. Matches may overlap their own output
// (run-length encoding falls out for free). There is no window limit — a
// block's raw form is bounded by segV3BlockRows rows, far under any
// practical distance.
const lzMinMatch = 4

// lzMaxMatch is the longest match one token can carry; longer matches emit
// multiple tokens.
const lzMaxMatch = 127 + lzMinMatch

// lzCompress appends the compressed form of src to dst. Greedy matching
// over a 4-byte hash table: small, allocation-free, and effective on the
// residual redundancy varint/delta encoding leaves behind (repeated attr
// deltas, runs of zero fail codes, cycling op patterns).
func lzCompress(dst, src []byte) []byte {
	var table [1 << 12]int32
	for i := range table {
		table[i] = -1
	}
	hash := func(p int) uint32 {
		return binary.LittleEndian.Uint32(src[p:]) * 2654435761 >> 20
	}
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		h := hash(i)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		length := lzMinMatch
		for i+length < len(src) && src[int(cand)+length] == src[i+length] {
			length++
		}
		dst = lzFlushLiterals(dst, src[litStart:i])
		dist := i - int(cand)
		for length >= lzMinMatch {
			l := length
			if l > lzMaxMatch {
				l = lzMaxMatch
			}
			// Never strand a sub-minMatch tail: shrink this token instead.
			if rest := length - l; rest > 0 && rest < lzMinMatch {
				l = length - lzMinMatch
			}
			dst = append(dst, 0x80|byte(l-lzMinMatch))
			dst = binary.AppendUvarint(dst, uint64(dist))
			i += l
			length -= l
		}
		litStart = i
	}
	return lzFlushLiterals(dst, src[litStart:])
}

func lzFlushLiterals(dst, lits []byte) []byte {
	for len(lits) > 0 {
		n := len(lits)
		if n > 128 {
			n = 128
		}
		dst = append(dst, byte(n-1))
		dst = append(dst, lits[:n]...)
		lits = lits[n:]
	}
	return dst
}

// lzDecode decompresses src into dst, which must be pre-sized to the exact
// raw length (the zone map records it). Any mismatch — a truncated token, a
// distance reaching before the output start, output over- or under-run — is
// a codec error; dst is filled left to right so no uninitialized bytes leak
// on failure paths.
func lzDecode(dst, src []byte) error {
	d, s := 0, 0
	for s < len(src) {
		ctrl := src[s]
		s++
		if ctrl < 0x80 {
			n := int(ctrl) + 1
			if s+n > len(src) || d+n > len(dst) {
				return errCodec
			}
			copy(dst[d:], src[s:s+n])
			s += n
			d += n
			continue
		}
		length := int(ctrl&0x7F) + lzMinMatch
		dist, n := binary.Uvarint(src[s:])
		if n <= 0 {
			return errCodec
		}
		s += n
		if dist == 0 || dist > uint64(d) || d+length > len(dst) {
			return errCodec
		}
		pos := d - int(dist)
		if int(dist) >= length {
			copy(dst[d:d+length], dst[pos:])
		} else {
			// The match overlaps its own output: bytes written here feed the
			// ones after them.
			for k := 0; k < length; k++ {
				dst[d+k] = dst[pos+k]
			}
		}
		d += length
	}
	if d != len(dst) {
		return errCodec
	}
	return nil
}
