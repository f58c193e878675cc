package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sort"
	"strconv"

	"aiql/internal/pred"
	"aiql/internal/types"
)

// Version 3 of the sealed-segment format is v2 with two additions, sharing
// everything else (header, directory, dictionary, postings, zone maps, mmap
// lifecycle — see segment_v2.go):
//
//   - Compressed column blocks. The raw v2 column layout is replaced by a
//     byte-oriented encoding — uvarint start-time deltas, zigzag-varint
//     residuals for the remaining numeric columns, bit-packed dictionary
//     indexes and op codes — then the whole encoded block runs through the
//     small LZ codec in blockcodec.go when that actually shrinks it. Blocks
//     become variable-length, so each zone additionally records its block's
//     offset, stored length and raw (pre-compression) length, all
//     cross-checked at meta decode: stored blocks must tile the data region
//     exactly and raw lengths are bounded per row, so a corrupt zone can
//     neither misalign reads nor request an unbounded allocation.
//
//   - Attribute zone maps. Each zone carries two 64-bit trigram filters,
//     one over the attribute values of the block's subject entities and one
//     over its objects (including the synthesized id/agentid/type
//     pseudo-attributes). A LIKE or equality predicate contributes required
//     substrings (pred.RequiredSubstrings); a block whose filter provably
//     lacks one of their trigrams cannot contain a match and is skipped —
//     the same pruning time and op predicates already get. Entity ids the
//     writer cannot resolve saturate the filter rather than weaken it.
//
// The zone encoding appends to v2's 42 bytes:
//
//	subjTri u64 | objTri u64 | dataOff u64 | dataLen u32 | rawLen u32
//
// and each stored block is a flag byte (0 = raw, 1 = LZ) followed by the
// payload, checksummed as stored so the CRC covers exactly the bytes read.
const (
	segV3Magic     = "AIQLSEG3"
	segV3ZoneBytes = segV2ZoneBytes + 8 + 8 + 8 + 4 + 4

	// segV3MaxRowEnc bounds the encoded (pre-compression) size of one row:
	// 5 (start uvarint) + 5×10 (svarint columns) + 4+4 (packed dict
	// indexes) + 1 (packed op, worst case whole byte). Meta decode rejects
	// any zone advertising more — the OOM guard for lazy block decode.
	segV3MaxRowEnc = 64
)

// writeSegmentV3 compacts one batch into an immutable v3 (compressed)
// segment. lookup resolves entity ids the batch does not carry so attribute
// zone maps can cover events referencing entities sealed earlier.
func writeSegmentV3(dir string, firstSeq, lastSeq uint64, entities []types.Entity, events []types.Event, lookup func(types.EntityID) *types.Entity) (*segmentV2File, error) {
	return writeSegmentCols(dir, firstSeq, lastSeq, entities, events, 3, lookup)
}

// openSegmentV3 reads a v3 segment's header and directory only.
func openSegmentV3(path string) (*segmentV2File, error) {
	return openSegmentCols(path, segV3Magic, 3)
}

// triMask returns the trigram filter bits for every 3-byte window of s.
// The filter is a plain 64-bit Bloom filter with one hash: false positives
// only ever make pruning less effective, never wrong.
func triMask(s string) uint64 {
	var m uint64
	for i := 0; i+3 <= len(s); i++ {
		h := (uint32(s[i])*251+uint32(s[i+1]))*251 + uint32(s[i+2])
		h *= 2654435761
		m |= 1 << (h >> 26)
	}
	return m
}

// entityTriMask unions the trigram filters of every attribute value the
// predicate language can observe on e — the Attrs map plus the synthesized
// id/agentid/type pseudo-attributes (see types.Entity.Attr).
func entityTriMask(e *types.Entity) uint64 {
	m := triMask(strconv.FormatUint(uint64(e.ID), 10))
	m |= triMask(strconv.Itoa(e.AgentID))
	m |= triMask(e.Type.String())
	for _, v := range e.Attrs {
		m |= triMask(v)
	}
	return m
}

// requiredTriMask converts a predicate's required substrings into the
// trigram bits every matching entity must exhibit. Zero means the predicate
// offers no attribute pruning (no substring of length >= 3 is required).
func requiredTriMask(p pred.Pred) uint64 {
	var m uint64
	for _, s := range pred.RequiredSubstrings(p) {
		if len(s) >= 3 {
			m |= triMask(s)
		}
	}
	return m
}

// buildV3Partition encodes one sorted partition into its meta and data
// regions in the v3 format. resolve maps entity ids to entities for the
// attribute filters; unresolvable ids saturate their block's filter.
func buildV3Partition(k partKey, evs []types.Event, resolve func(types.EntityID) *types.Entity) (v2PartBuild, error) {
	n := len(evs)
	idSet := make(map[types.EntityID]struct{}, n)
	for i := range evs {
		idSet[evs[i].Subject] = struct{}{}
		idSet[evs[i].Object] = struct{}{}
	}
	dict := make([]types.EntityID, 0, len(idSet))
	for id := range idSet {
		dict = append(dict, id)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	slot := make(map[types.EntityID]uint32, len(dict))
	for i, id := range dict {
		slot[id] = uint32(i)
	}

	// Per-dictionary-entry attribute filters, computed once and reused by
	// every block the entity appears in. ^0 marks an unresolvable id.
	entMask := make([]uint64, len(dict))
	for i, id := range dict {
		if e := resolve(id); e != nil {
			entMask[i] = entityTriMask(e)
		} else {
			entMask[i] = ^uint64(0)
		}
	}

	subjPos := make([][]uint32, len(dict))
	objPos := make([][]uint32, len(dict))
	for i := range evs {
		s, o := slot[evs[i].Subject], slot[evs[i].Object]
		subjPos[s] = append(subjPos[s], uint32(i))
		objPos[o] = append(objPos[o], uint32(i))
	}

	nBlocks := (n + segV2BlockRows - 1) / segV2BlockRows
	zones := make([]segV2Zone, 0, nBlocks)
	var data []byte
	var rawEnc, lzEnc []byte
	for lo := 0; lo < n; lo += segV2BlockRows {
		hi := lo + segV2BlockRows
		if hi > n {
			hi = n
		}
		block := evs[lo:hi]
		z := segV2Zone{
			count:    len(block),
			minStart: block[0].Start,
			maxStart: block[len(block)-1].Start,
			minSubj:  slot[block[0].Subject],
			minObj:   slot[block[0].Object],
		}
		z.maxSubj, z.maxObj = z.minSubj, z.minObj
		for i := range block {
			ev := &block[i]
			z.ops = z.ops.Add(ev.Op)
			s, o := slot[ev.Subject], slot[ev.Object]
			if s < z.minSubj {
				z.minSubj = s
			}
			if s > z.maxSubj {
				z.maxSubj = s
			}
			if o < z.minObj {
				z.minObj = o
			}
			if o > z.maxObj {
				z.maxObj = o
			}
			z.subjTri |= entMask[s]
			z.objTri |= entMask[o]
		}
		if delta := z.maxStart - z.minStart; delta < 0 || delta > int64(^uint32(0)) {
			return v2PartBuild{}, fmt.Errorf("storage: segment: partition (%d,%d) start span %d overflows delta encoding", k.agent, k.day, delta)
		}

		rawEnc = encodeV3Block(rawEnc[:0], block, &z, slot)
		if len(rawEnc) > len(block)*segV3MaxRowEnc {
			return v2PartBuild{}, fmt.Errorf("storage: segment: partition (%d,%d) block encoding %d bytes exceeds bound", k.agent, k.day, len(rawEnc))
		}
		lzEnc = lzCompress(lzEnc[:0], rawEnc)
		z.dataOff = uint64(len(data))
		z.rawLen = uint32(len(rawEnc))
		var stored []byte
		if len(lzEnc) < len(rawEnc) {
			data = append(data, 1)
			stored = lzEnc
		} else {
			data = append(data, 0)
			stored = rawEnc
		}
		data = append(data, stored...)
		z.dataLen = uint32(1 + len(stored))
		z.crc = crc32.Checksum(data[z.dataOff:uint64(len(data))], castagnoli)
		zones = append(zones, z)
	}

	// Meta region: dict | zones | bounds | posts — same shape as v2, wider
	// zone entries.
	meta := make([]byte, 0, len(dict)*8+nBlocks*segV3ZoneBytes+(2*len(dict)+1)*4+2*n*4)
	for _, id := range dict {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(id))
	}
	for i := range zones {
		z := &zones[i]
		meta = binary.LittleEndian.AppendUint32(meta, uint32(z.count))
		meta = binary.LittleEndian.AppendUint32(meta, z.crc)
		meta = binary.LittleEndian.AppendUint64(meta, uint64(z.minStart))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(z.maxStart))
		meta = binary.LittleEndian.AppendUint16(meta, uint16(z.ops))
		meta = binary.LittleEndian.AppendUint32(meta, z.minSubj)
		meta = binary.LittleEndian.AppendUint32(meta, z.maxSubj)
		meta = binary.LittleEndian.AppendUint32(meta, z.minObj)
		meta = binary.LittleEndian.AppendUint32(meta, z.maxObj)
		meta = binary.LittleEndian.AppendUint64(meta, z.subjTri)
		meta = binary.LittleEndian.AppendUint64(meta, z.objTri)
		meta = binary.LittleEndian.AppendUint64(meta, z.dataOff)
		meta = binary.LittleEndian.AppendUint32(meta, z.dataLen)
		meta = binary.LittleEndian.AppendUint32(meta, z.rawLen)
	}
	bound := uint32(0)
	meta = binary.LittleEndian.AppendUint32(meta, bound)
	for i := range dict {
		bound += uint32(len(subjPos[i]))
		meta = binary.LittleEndian.AppendUint32(meta, bound)
		bound += uint32(len(objPos[i]))
		meta = binary.LittleEndian.AppendUint32(meta, bound)
	}
	for i := range dict {
		for _, p := range subjPos[i] {
			meta = binary.LittleEndian.AppendUint32(meta, p)
		}
		for _, p := range objPos[i] {
			meta = binary.LittleEndian.AppendUint32(meta, p)
		}
	}

	return v2PartBuild{
		info: segV2PartInfo{
			key:      k,
			nEvents:  n,
			nBlocks:  nBlocks,
			nDict:    len(dict),
			metaCRC:  crc32.Checksum(meta, castagnoli),
			minStart: evs[0].Start,
			maxStart: evs[n-1].Start,
		},
		meta: meta,
		data: data,
	}, nil
}

// opWidth derives the bit width of the packed op column from a zone's op
// set; writer and reader must agree, so both call this.
func opWidth(ops types.OpSet) int {
	maxOp := bits.Len16(uint16(ops)) - 1
	return bits.Len(uint(maxOp))
}

// encodeV3Block appends the raw (pre-compression) encoding of one sorted
// block to dst. Column order matches v2; each column picks the cheapest
// residual its zone metadata lets the reader undo: start times as uvarint
// deltas off the zone minimum, ends relative to their row's start, ids and
// seqs as delta chains (both ascend in practice), amounts and fail codes as
// plain zigzag varints, dictionary indexes bit-packed against the zone's
// index range, op codes bit-packed against the zone's op set.
func encodeV3Block(dst []byte, block []types.Event, z *segV2Zone, slot map[types.EntityID]uint32) []byte {
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
