package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestZigzagRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -2, 63, -64, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)}
	for _, v := range vals {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
	// Small magnitudes must map to small codes (that is the whole point).
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(-2) != 3 {
		t.Errorf("zigzag interleaving broken: %d %d %d", zigzag(-1), zigzag(1), zigzag(-2))
	}
}

func TestReadAndSkipVarints(t *testing.T) {
	var buf []byte
	want := []uint64{0, 1, 127, 128, 300, 16383, 16384, 1 << 21, math.MaxUint64, 5, 1 << 40, 0, 0, 77, 129, 2, 3}
	var ends []int
	for _, v := range want {
		buf = binary.AppendUvarint(buf, v)
		ends = append(ends, len(buf))
	}
	got := make([]int64, len(want))
	next, ok := readUvarints(buf, 0, got)
	if !ok || next != len(buf) {
		t.Fatalf("readUvarints = (%d, %v), want (%d, true)", next, ok, len(buf))
	}
	for i, v := range want {
		if uint64(got[i]) != v {
			t.Fatalf("uvarint %d = %d, want %d", i, uint64(got[i]), v)
		}
	}
	// Skipping k codes from any code boundary lands on the boundary k later,
	// whatever the alignment of the word loop.
	starts := append([]int{0}, ends...)
	for from := range want {
		for k := 0; from+k <= len(want); k++ {
			next, ok := skipVarints(buf, starts[from], k)
			if !ok || next != starts[from+k] {
				t.Fatalf("skip %d codes from code %d = (%d, %v), want %d", k, from, next, ok, starts[from+k])
			}
		}
	}
	// Running out of bytes is reported, never a panic: one code too many, a
	// truncated multi-byte code, and a code past binary.Uvarint's limits.
	if _, ok := readUvarints(buf, 0, make([]int64, len(want)+1)); ok {
		t.Fatal("read past the end succeeded")
	}
	if _, ok := skipVarints(buf, 0, len(want)+1); ok {
		t.Fatal("skip past the end succeeded")
	}
	if _, ok := readUvarints([]byte{0x80, 0x80}, 0, make([]int64, 1)); ok {
		t.Fatal("truncated varint decoded")
	}
	if _, ok := skipVarints([]byte{0x80, 0x80}, 0, 1); ok {
		t.Fatal("truncated varint skipped")
	}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	if _, ok := readUvarints(overlong, 0, make([]int64, 1)); ok {
		t.Fatal("overlong varint decoded")
	}
}

func TestBitPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{0, 1, 3, 7, 8, 13, 16, 27, 32} {
		for _, n := range []int{1, 2, 63, 64, 65, 1024} {
			base := rng.Uint32() >> 1
			vals := make([]uint32, n)
			for i := range vals {
				if width == 32 {
					vals[i] = rng.Uint32()
					base = 0
				} else {
					vals[i] = base + uint32(rng.Int63n(1<<width))
				}
			}
			enc := appendPacked(nil, vals, base, width)
			wantLen := (n*width + 7) / 8
			if len(enc) != wantLen {
				t.Fatalf("width %d n %d: encoded %d bytes, want %d", width, n, len(enc), wantLen)
			}
			// Probe the column alone and with bytes following it (the next
			// column, as inside a block): the excess must be masked away.
			for _, col := range [][]byte{enc, append(append([]byte(nil), enc...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)} {
				for i := range vals {
					if got := base + packedAt(col, i, width); got != vals[i] {
						t.Fatalf("width %d n %d: val %d = %d, want %d", width, n, i, got, vals[i])
					}
				}
			}
		}
	}
}

func lzRoundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := lzCompress(nil, src)
	dst := make([]byte, len(src))
	if err := lzDecode(dst, enc); err != nil {
		t.Fatalf("decode(%d bytes compressed from %d): %v", len(enc), len(src), err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dst))
	}
}

func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]byte{
		"empty":      {},
		"one":        {0x42},
		"three":      {1, 2, 3},
		"min-match":  {9, 9, 9, 9},
		"all-zero":   make([]byte, 10_000),
		"alternate":  bytes.Repeat([]byte{0xAA, 0x55}, 4096),
		"longlit":    func() []byte { b := make([]byte, 700); rng.Read(b); return b }(),
		"longmatch":  bytes.Repeat([]byte("abcdefgh"), 2000),
		"nearmiss":   append(bytes.Repeat([]byte("abcd"), 100), 'x'),
		"shorttail1": append(bytes.Repeat([]byte{7}, 200), 1),
		"shorttail2": append(bytes.Repeat([]byte{7}, 200), 1, 2),
		"shorttail3": append(bytes.Repeat([]byte{7}, 200), 1, 2, 3),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { lzRoundTrip(t, src) })
	}
	t.Run("random-sizes", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			n := rng.Intn(5000)
			src := make([]byte, n)
			// Mix random bytes with copied spans so matches actually occur.
			rng.Read(src)
			for j := 0; j+64 < n; j += 128 {
				copy(src[j+32:j+64], src[j:j+32])
			}
			lzRoundTrip(t, src)
		}
	})
	t.Run("compresses-repetitive", func(t *testing.T) {
		src := bytes.Repeat([]byte("segment "), 1024)
		if enc := lzCompress(nil, src); len(enc) >= len(src)/4 {
			t.Fatalf("repetitive input compressed %d -> %d, expected at least 4x", len(src), len(enc))
		}
	})
}

// TestLZDecodeMalformed feeds the decoder garbage and truncations: every
// call must return an error or succeed with exactly len(dst) bytes — never
// panic, never read or write out of bounds.
func TestLZDecodeMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := bytes.Repeat([]byte("abcdefgh"), 64)
	enc := lzCompress(nil, src)

	// Truncations of a valid stream.
	for cut := 0; cut < len(enc); cut++ {
		dst := make([]byte, len(src))
		if err := lzDecode(dst, enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(enc))
		}
	}
	// Wrong output lengths for a valid stream.
	for _, n := range []int{0, 1, len(src) - 1, len(src) + 1, 4 * len(src)} {
		if err := lzDecode(make([]byte, n), enc); err == nil {
			t.Fatalf("decode into %d bytes succeeded, want %d", n, len(src))
		}
	}
	// Single-byte mutations: either a clean error or a full-length output.
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xFF
		dst := make([]byte, len(src))
		_ = lzDecode(dst, mut) // must not panic
	}
	// Pure garbage of many sizes.
	for i := 0; i < 500; i++ {
		g := make([]byte, rng.Intn(300))
		rng.Read(g)
		_ = lzDecode(make([]byte, rng.Intn(600)), g) // must not panic
	}
}

// FuzzBlockCodec fuzzes both directions of the LZ codec: arbitrary input
// must round-trip exactly, and arbitrary bytes fed to the decoder must
// never panic or claim success at the wrong length.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte(nil), 0)
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaa"), 24)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, 64), 10)
	f.Fuzz(func(t *testing.T, data []byte, dstLen int) {
		enc := lzCompress(nil, data)
		dst := make([]byte, len(data))
		if err := lzDecode(dst, enc); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatal("round-trip mismatch")
		}
		// Treat the fuzz input itself as a compressed stream.
		out := make([]byte, dstLen&0xFFFF)
		_ = lzDecode(out, data) // must not panic
	})
}
