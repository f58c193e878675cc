package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"aiql/internal/types"
)

// Block encoding: one block of a segment partition (segment.go) holds up to
// segBlockRows sorted rows as columns, in order
//
//	starts | ends | ids | seqs | amounts | fails    — varints, see encodeBlock
//	subj | obj                                      — bit-packed dict indexes
//	ops                                             — bit-packed op codes
//
// The varint columns vary in length, the bit-packed tail does not: its
// widths follow from the zone map, so the reader finds the tail by counting
// back from the block's raw length.

// opWidth derives the bit width of the packed op column from a zone's op
// set; writer and reader must agree, so both call this.
func opWidth(ops types.OpSet) int {
	maxOp := bits.Len16(uint16(ops)) - 1
	return bits.Len(uint(maxOp))
}

// encodeBlock appends the raw (pre-compression) encoding of one sorted
// block to dst. Each column picks the cheapest residual its zone metadata
// lets the reader undo: start times as uvarint deltas off the zone minimum,
// ends relative to their row's start, ids and seqs as delta chains (both
// ascend in practice), amounts and fail codes as plain zigzag varints,
// dictionary indexes bit-packed against the zone's index range, op codes
// bit-packed against the zone's op set.
func encodeBlock(dst []byte, block []types.Event, z *segZone, slot map[types.EntityID]uint32) []byte {
	prevStart := z.minStart
	for i := range block {
		dst = binary.AppendUvarint(dst, uint64(block[i].Start-prevStart))
		prevStart = block[i].Start
	}
	for i := range block {
		dst = binary.AppendUvarint(dst, zigzag(block[i].End-block[i].Start))
	}
	prev := int64(0)
	for i := range block {
		v := int64(block[i].ID)
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	prev = 0
	for i := range block {
		v := int64(block[i].Seq)
		dst = binary.AppendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	for i := range block {
		dst = binary.AppendUvarint(dst, zigzag(block[i].Amount))
	}
	for i := range block {
		dst = binary.AppendUvarint(dst, zigzag(int64(block[i].FailCode)))
	}
	idx := make([]uint32, len(block))
	for i := range block {
		idx[i] = slot[block[i].Subject]
	}
	dst = appendPacked(dst, idx, z.minSubj, bits.Len32(z.maxSubj-z.minSubj))
	for i := range block {
		idx[i] = slot[block[i].Object]
	}
	dst = appendPacked(dst, idx, z.minObj, bits.Len32(z.maxObj-z.minObj))
	for i := range block {
		idx[i] = uint32(block[i].Op)
	}
	return appendPacked(dst, idx, 0, opWidth(z.ops))
}

// Value columns of a block, in stored order; colAgents is synthesized (the
// partition's constant agent id) so a block serves every numeric event
// attribute pred.ColumnSource can be asked for.
const (
	colStarts = iota
	colEnds
	colIDs
	colSeqs
	colAmounts
	colFails
	nStoredCols
	colAgents = nStoredCols

	allStoredCols = 1<<nStoredCols - 1
)

// packedCol is one dictionary-index column of an open block, probed by row
// without unpacking: width-bit codes over base, promised by the zone map to
// land in [lo, hi].
type packedCol struct {
	buf    []byte // from the column's first byte to the end of the block
	width  int
	base   uint32
	lo, hi uint32
}

// at returns row i's dictionary index; ok is false when it breaks the
// zone's promise.
func (c *packedCol) at(i int) (idx uint32, ok bool) {
	idx = c.base + packedAt(c.buf, i, c.width)
	return idx, idx >= c.lo && idx <= c.hi
}

// blockCols is one open column block, reused across blocks by one scan.
// openBlock verifies the block's bytes and locates its columns; after that
// each column inflates only when something reads it. The dictionary-index
// and op columns are probed in place by bit offset (subj.at, obj.at, opAt;
// opColumn unpacks the ops once for whole-block passes). The value columns
// decode on first use through need — Int64Column asks for the one column a
// vectorized predicate reads, materializing a row asks for all of them —
// stepping over the varint columns (and rows) in front of what is wanted
// without decoding them. clip narrows the rows of interest to [lo, hi) as
// the scan learns them — the part of the block inside the time window, then
// the span of the rows that passed every predicate: columns decoded
// afterwards hold only those rows (delta chains — starts, ids, seqs — from
// row 0 up to hi), still at their absolute row index, and as a
// pred.ColumnSource the block presents rows lo..hi-1 as its rows
// 0..hi-lo-1. Every check a column's values owe the zone map runs when
// those values are decoded or probed.
//
// Starts are absolute (delta already applied); subject/object probes yield
// dictionary indexes.
type blockCols struct {
	path string
	key  partKey
	b    int
	z    *segZone
	n    int    // rows stored
	raw  []byte // the block's inflated encoding

	lo, hi int // rows of interest; [0, n) until clip narrows them

	subj, obj packedCol
	opsBuf    []byte
	opsWidth  int
	ops       []types.Op
	haveOps   bool

	// Value columns. have marks the decoded ones. The block learns where its
	// varint columns start as it walks them: colOff[k] is known for
	// k <= offKnown, and column colFails must end exactly at varEnd, where
	// the bit-packed tail begins.
	vals     [colAgents + 1][]int64
	have     uint8
	colOff   [nStoredCols + 1]int
	offKnown int
	varEnd   int

	// err latches a decode failure met inside Int64Column/OpColumn, whose
	// pred.ColumnSource signatures cannot return one.
	err error

	enc []byte // decompression scratch
}

func (c *blockCols) corrupt(format string, args ...any) error {
	return corruptf(c.path, "partition (%d,%d) block %d: %s", c.key.agent, c.key.day, c.b, fmt.Sprintf(format, args...))
}

// openBlock points cols at block b of a partition without decoding any
// column. What always runs: the checksum over the stored bytes,
// decompression to exactly the zone's raw length, and the arithmetic that
// places the bit-packed tail, counted back from the raw length, which must
// leave room for six varints per row in front of it.
func (sf *segmentFile) openBlock(pi *segPart, m *segMeta, b int, cols *blockCols) error {
	if err := sf.ensureMapped(); err != nil {
		return err
	}
	z := &m.zones[b]
	n := z.count
	cols.path, cols.key, cols.b, cols.z = sf.path, pi.key, b, z
	cols.n, cols.lo, cols.hi = n, 0, n
	cols.have, cols.haveOps, cols.err = 0, false, nil
	cols.subj = packedCol{lo: z.minSubj, hi: z.maxSubj}
	cols.obj = packedCol{lo: z.minObj, hi: z.maxObj}

	off := pi.dataOff + z.dataOff
	end := off + uint64(z.dataLen)
	if end > uint64(len(sf.data)) {
		return cols.corrupt("exceeds mapped size %d", len(sf.data))
	}
	stored := sf.data[off:end]
	if crc32.Checksum(stored, castagnoli) != z.crc {
		return cols.corrupt("checksum mismatch")
	}
	payload := stored[1:]
	var raw []byte
	switch stored[0] {
	case 0:
		if len(payload) != int(z.rawLen) {
			return cols.corrupt("raw block length %d, want %d", len(payload), z.rawLen)
		}
		raw = payload
	case 1:
		if cap(cols.enc) < int(z.rawLen) {
			cols.enc = make([]byte, z.rawLen)
		}
		raw = cols.enc[:z.rawLen]
		if err := lzDecode(raw, payload); err != nil {
			return cols.corrupt("block codec: %v", err)
		}
	default:
		return cols.corrupt("unknown block encoding %d", stored[0])
	}
	if uint16(z.ops) == 0 {
		return cols.corrupt("empty op set for %d rows", n)
	}
	cols.subj.base, cols.subj.width = z.minSubj, bits.Len32(z.maxSubj-z.minSubj)
	cols.obj.base, cols.obj.width = z.minObj, bits.Len32(z.maxObj-z.minObj)
	cols.opsWidth = opWidth(z.ops)
	opsOff := len(raw) - (n*cols.opsWidth+7)/8
	objOff := opsOff - (n*cols.obj.width+7)/8
	subjOff := objOff - (n*cols.subj.width+7)/8
	if subjOff < nStoredCols*n {
		return cols.corrupt("malformed block encoding: %d bytes cannot hold %d rows", len(raw), n)
	}
	cols.raw = raw
	cols.subj.buf, cols.obj.buf, cols.opsBuf = raw[subjOff:], raw[objOff:], raw[opsOff:]
	cols.varEnd, cols.offKnown = subjOff, 0
	cols.colOff[0] = 0
	return nil
}

// opAt returns row i's operation; ok is false when it is outside the zone's
// op set.
func (c *blockCols) opAt(i int) (op types.Op, ok bool) {
	code := packedAt(c.opsBuf, i, c.opsWidth)
	return types.Op(code), code <= 15 && c.z.ops.Contains(types.Op(code))
}

// opColumn unpacks (once) and returns the whole op column.
func (c *blockCols) opColumn() ([]types.Op, error) {
	if c.haveOps {
		return c.ops[:c.n], nil
	}
	if c.ops == nil {
		c.ops = make([]types.Op, segBlockRows)
	}
	ops := c.ops[:c.n]
	for i := range ops {
		op, ok := c.opAt(i)
		if !ok {
			return nil, c.corrupt("row %d: operation %d outside zone op set", i, op)
		}
		ops[i] = op
	}
	c.haveOps = true
	return ops, nil
}

// clip narrows the rows of interest to [lo, hi), a sub-range of the current
// one — so columns decoded before the call still cover it.
func (c *blockCols) clip(lo, hi int) { c.lo, c.hi = lo, hi }

// need decodes rows [lo, hi) of the value columns in mask (bits 1<<colStarts
// …) that are not decoded yet.
func (c *blockCols) need(mask uint8) error {
	if c.err != nil {
		return c.err
	}
	if mask&(1<<colEnds) != 0 {
		mask |= 1 << colStarts // ends are stored relative to their start
	}
	for k := 0; k <= colAgents; k++ {
		if mask&^c.have&(1<<k) == 0 {
			continue
		}
		if c.vals[k] == nil {
			c.vals[k] = make([]int64, segBlockRows)
		}
		if k == colAgents {
			for i := c.lo; i < c.hi; i++ {
				c.vals[k][i] = int64(c.key.agent)
			}
		} else if err := c.decodeVarints(k); err != nil {
			c.err = err
			return err
		}
		c.have |= 1 << k
	}
	return nil
}

// decodeVarints decodes rows [lo, hi) of stored column k: step over the
// undecoded columns and rows in front of them, read the codes, undo the
// column's residual. Starts are checked, and ids and seqs summed, from the
// block's first row.
func (c *blockCols) decodeVarints(k int) error {
	lo := c.lo
	if k == colStarts || k == colIDs || k == colSeqs {
		lo = 0
	}
	buf := c.raw[:c.varEnd]
	for c.offKnown < k {
		next, ok := skipVarints(buf, c.colOff[c.offKnown], c.n)
		if !ok {
			return c.corrupt("malformed block encoding: value columns truncated")
		}
		c.offKnown++
		c.colOff[c.offKnown] = next
	}
	out := c.vals[k][lo:c.hi]
	off, ok := skipVarints(buf, c.colOff[k], lo)
	if ok {
		off, ok = readUvarints(buf, off, out)
	}
	if ok && (k == c.offKnown || k == colFails) {
		// Find where the column ends: the next column starts there, and the
		// last one must end exactly where the bit-packed tail begins.
		if off, ok = skipVarints(buf, off, c.n-c.hi); ok {
			if k == colFails && off != c.varEnd {
				return c.corrupt("malformed block encoding: value columns end at %d, want %d", off, c.varEnd)
			}
			if k == c.offKnown {
				c.offKnown++
				c.colOff[c.offKnown] = off
			}
		}
	}
	if !ok {
		return c.corrupt("malformed block encoding: value column %d", k)
	}
	switch k {
	case colStarts:
		z := c.z
		span, cur := uint64(z.maxStart-z.minStart), z.minStart
		for i, d := range out {
			if uint64(d) > span {
				return c.corrupt("row %d: start outside zone time range", i)
			}
			cur += d
			if cur > z.maxStart || cur < z.minStart {
				return c.corrupt("row %d: start outside zone time range", i)
			}
			out[i] = cur
		}
	case colEnds:
		starts := c.vals[colStarts][lo:c.hi]
		for i, u := range out {
			out[i] = starts[i] + unzigzag(uint64(u))
		}
	case colIDs, colSeqs:
		prev := int64(0)
		for i, u := range out {
			prev += unzigzag(uint64(u))
			out[i] = prev
		}
	default:
		for i, u := range out {
			out[i] = unzigzag(uint64(u))
		}
	}
	return nil
}

// NumRows implements pred.ColumnSource: the rows of interest.
func (c *blockCols) NumRows() int { return c.hi - c.lo }

// Int64Column implements pred.ColumnSource, decoding the column on first
// use. A decode failure reports the column as unavailable and latches in
// c.err for the scan to return.
func (c *blockCols) Int64Column(attr string) ([]int64, bool) {
	var k int
	switch attr {
	case types.EvtAttrAmount:
		k = colAmounts
	case types.EvtAttrFailCode:
		k = colFails
	case types.EvtAttrSeq:
		k = colSeqs
	case types.EvtAttrStart:
		k = colStarts
	case types.EvtAttrEnd:
		k = colEnds
	case types.AttrAgentID:
		k = colAgents
	case types.AttrID:
		k = colIDs
	default:
		return nil, false
	}
	if c.need(1<<k) != nil {
		return nil, false
	}
	return c.vals[k][c.lo:c.hi], true
}

// OpColumn implements pred.ColumnSource.
func (c *blockCols) OpColumn() ([]types.Op, bool) {
	ops, err := c.opColumn()
	if err != nil {
		c.err = err
		return nil, false
	}
	return ops[c.lo:c.hi], true
}

// event materializes row i (one of the rows of interest) into ev, resolving
// subject and object through the partition dictionary, and returns their
// dictionary indexes. Every stored column must be decoded
// (need(allStoredCols)).
func (c *blockCols) event(i int, m *segMeta, ev *types.Event) (sdi, odi uint32, err error) {
	sdi, ok := c.subj.at(i)
	if !ok {
		return 0, 0, c.corrupt("row %d: out-of-range dictionary index %d", i, sdi)
	}
	odi, ok = c.obj.at(i)
	if !ok {
		return 0, 0, c.corrupt("row %d: out-of-range dictionary index %d", i, odi)
	}
	op, ok := c.opAt(i)
	if !ok {
		return 0, 0, c.corrupt("row %d: operation %d outside zone op set", i, op)
	}
	ev.ID = types.EventID(c.vals[colIDs][i])
	ev.AgentID = c.key.agent
	ev.Subject = m.dict[sdi]
	ev.Object = m.dict[odi]
	ev.Op = op
	ev.Start = c.vals[colStarts][i]
	ev.End = c.vals[colEnds][i]
	ev.Seq = uint64(c.vals[colSeqs][i])
	ev.Amount = c.vals[colAmounts][i]
	ev.FailCode = int(c.vals[colFails][i])
	return sdi, odi, nil
}
