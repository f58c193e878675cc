package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"aiql/internal/timeutil"
	"aiql/internal/types"
)

// Version 2 of the sealed-segment format replaces v1's row-oriented
// partition blocks with a columnar layout built for the scan path:
//
//   - Events live in fixed-size blocks (segV2BlockRows rows) of contiguous
//     per-attribute columns, so a predicate over one attribute walks one
//     dense array instead of striding through 73-byte row structs.
//   - Subject/object entity ids are dictionary-encoded per partition: the
//     columns hold u32 indexes into a sorted id dictionary, and the posting
//     lists become slices of one shared position array addressed through a
//     bounds table — no per-entity map materialization on load.
//   - Start timestamps are delta-encoded (u32) against the block's zone-map
//     minimum; a partition spans one UTC day, so the delta always fits.
//   - Every block carries a zone map — min/max start time, an OpSet bitmap,
//     and the min/max dictionary index of its subjects and objects — letting
//     a query skip whole blocks its predicates cannot match without reading
//     them.
//
// The file is opened header-and-directory-only (same O(partitions) recovery
// cost as v1) and the payload is memory-mapped read-only on first use:
// WarmUp maps the file, and per-partition metadata (dictionary, zones,
// postings) decodes lazily on first scan of that partition. Cold queries
// therefore touch only the blocks their windows and predicates select.
//
// On-disk layout (integers little-endian; header mirrors v1 field-for-field
// so version dispatch is by magic alone):
//
//	magic "AIQLSEG2" (8)
//	firstSeq u64  lastSeq u64
//	nParts u32    nEntities u32
//	entityOff u64 entityLen u64 entityCRC u32
//	dirCRC u32
//	directory: nParts × {agent i64, day i64, nEvents u32, nBlocks u32,
//	                     nDict u32, metaCRC u32, minStart i64, maxStart i64,
//	                     metaOff u64, metaLen u64, dataOff u64, dataLen u64}
//	per-partition meta region:
//	    dict      nDict × u64          (sorted ascending entity ids)
//	    zones     nBlocks × 42 bytes   {count u32, crc u32, minStart i64,
//	                                    maxStart i64, ops u16, minSubj u32,
//	                                    maxSubj u32, minObj u32, maxObj u32}
//	    bounds    (2·nDict+1) × u32    (posting-list boundaries)
//	    posts     2·nEvents × u32      (event positions; subject list of
//	                                    dict entry i is posts[bounds[2i]:
//	                                    bounds[2i+1]], object list is
//	                                    posts[bounds[2i+1]:bounds[2i+2]])
//	per-partition data region: nBlocks × block, each block columns in order
//	    starts u32 (delta) | ends i64 | ids u64 | seqs u64 | amounts i64 |
//	    fails i64 | subj u32 (dict idx) | obj u32 (dict idx) | ops u8
//	entity block (identical codec to v1)
//
// Every length in the directory is arithmetically determined by the counts
// next to it, so a corrupted directory is caught at open by consistency
// checks rather than surfacing later as an over-allocation.

const (
	segV2Magic     = "AIQLSEG2"
	segV2DirEntry  = 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8
	segV2ZoneBytes = 4 + 4 + 8 + 8 + 2 + 4 + 4 + 4 + 4
	segV2RowBytes  = 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 1

	// segV2BlockRows is the zone-map granularity: rows per column block.
	segV2BlockRows = 1024
)

// ErrSegmentCorrupt is wrapped by every error reporting on-disk segment
// corruption (bad checksum, impossible count, out-of-range index…), so
// callers can distinguish data damage from I/O failure with errors.Is.
var ErrSegmentCorrupt = errors.New("storage: segment corrupt")

func corruptf(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrSegmentCorrupt, path, fmt.Sprintf(format, args...))
}

// segV2Zone is one block's zone map. The trailing fields exist only in the
// v3 (compressed) encoding: attribute trigram filters over the block's
// subject/object entities, and the block's position in the partition data
// region — compressed blocks are variable-length, so offsets can no longer
// be derived arithmetically from row counts. v2 zones leave them zero.
type segV2Zone struct {
	count    int
	crc      uint32
	minStart int64
	maxStart int64
	ops      types.OpSet
	minSubj  uint32
	maxSubj  uint32
	minObj   uint32
	maxObj   uint32

	// v3 only:
	subjTri uint64 // trigram filter over subject entities' attribute values
	objTri  uint64 // trigram filter over object entities' attribute values
	dataOff uint64 // block offset relative to the partition data region
	dataLen uint32 // stored (possibly compressed) block length
	rawLen  uint32 // encoded length before byte compression
}

// segV2Meta is a partition's decoded metadata: everything a scan needs to
// decide which blocks to touch, plus the posting lists for index probes.
type segV2Meta struct {
	dict   []types.EntityID // sorted ascending
	zones  []segV2Zone
	bounds []uint32
	posts  []uint32
}

// subjectPostings returns the event positions for dict entry i as subject.
func (m *segV2Meta) subjectPostings(i int) []uint32 {
	return m.posts[m.bounds[2*i]:m.bounds[2*i+1]]
}

// objectPostings returns the event positions for dict entry i as object.
func (m *segV2Meta) objectPostings(i int) []uint32 {
	return m.posts[m.bounds[2*i+1]:m.bounds[2*i+2]]
}

// dictIndex returns the dictionary slot of id, or -1.
func (m *segV2Meta) dictIndex(id types.EntityID) int {
	i := sort.Search(len(m.dict), func(j int) bool { return m.dict[j] >= id })
	if i < len(m.dict) && m.dict[i] == id {
		return i
	}
	return -1
}

// segV2PartInfo is the plain directory-entry payload — everything the
// writer computes and the reader trusts after checkV2PartInfo. It is
// separate from segV2Part so the writer can copy it freely (segV2Part
// carries lock state). The directory includes the partition's [minStart,
// maxStart] time range so the store can prune, order, and overlap-check
// cold partitions without touching the meta region.
type segV2PartInfo struct {
	key      partKey
	nEvents  int
	nBlocks  int
	nDict    int
	metaCRC  uint32
	minStart int64
	maxStart int64
	metaOff  uint64
	metaLen  uint64
	dataOff  uint64
	dataLen  uint64
}

// segV2Part is one directory entry plus its lazily-decoded metadata.
type segV2Part struct {
	segV2PartInfo

	metaOnce sync.Once
	metaErr  error
	// meta is published atomically so Estimate can peek at already-decoded
	// metadata without forcing (or racing with) the decode.
	meta atomic.Pointer[segV2Meta]
}

// peekMeta returns the decoded metadata if some scan already produced it,
// without triggering a decode.
func (pi *segV2Part) peekMeta() *segV2Meta { return pi.meta.Load() }

// segmentV2File is an opened columnar segment — v2 (raw blocks) or v3
// (compressed blocks; see segment_v3.go) — header and directory eagerly,
// the payload memory-mapped on first use and partition metadata decoded on
// first scan. The two versions share every structure except the zone
// encoding and the block codec, so one type serves both, dispatching on
// version where they differ.
type segmentV2File struct {
	path      string
	version   int // 2 or 3
	firstSeq  uint64
	lastSeq   uint64
	nEntities int
	entityOff uint64
	entityLen uint64
	entityCRC uint32
	parts     []segV2Part

	mapOnce sync.Once
	mapErr  error
	data    []byte
	mapped  bool // data came from mmap (vs. a read-whole-file fallback)
}

// ensureMapped maps (or, off unix, reads) the whole file read-only exactly
// once. The fd is closed immediately — the mapping outlives it.
func (sf *segmentV2File) ensureMapped() error {
	sf.mapOnce.Do(func() {
		f, err := os.Open(sf.path)
		if err != nil {
			sf.mapErr = fmt.Errorf("storage: segment: %w", err)
			return
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			sf.mapErr = fmt.Errorf("storage: segment: %w", err)
			return
		}
		sf.data, sf.mapped, sf.mapErr = mapFile(f, fi.Size())
	})
	return sf.mapErr
}

// unmap releases the mapping; only tests call it (stores keep segments
// mapped for their lifetime — the kernel pages them in and out as needed).
func (sf *segmentV2File) unmap() {
	if sf.mapped && sf.data != nil {
		unmapFile(sf.data)
	}
	sf.data = nil
	sf.mapped = false
}

// writeSegmentV2 compacts one batch of entities and events into an
// immutable v2 segment file in dir, returning it opened (header +
// directory, payload unmapped). The partitioning, sort order, and posting
// semantics match v1's writeSegment exactly; only the encoding differs.
func writeSegmentV2(dir string, firstSeq, lastSeq uint64, entities []types.Entity, events []types.Event) (*segmentV2File, error) {
	return writeSegmentCols(dir, firstSeq, lastSeq, entities, events, 2, nil)
}

// writeSegmentCols is the shared columnar writer behind writeSegmentV2 and
// writeSegmentV3. lookup resolves entity ids the batch itself does not
// carry (events referencing entities sealed in earlier segments) so the v3
// attribute zone maps can cover them; ids neither the batch nor lookup
// resolve saturate their block's filter instead of weakening it.
func writeSegmentCols(dir string, firstSeq, lastSeq uint64, entities []types.Entity, events []types.Event, version int, lookup func(types.EntityID) *types.Entity) (*segmentV2File, error) {
	magic := segV2Magic
	if version >= 3 {
		magic = segV3Magic
	}
	parts := make(map[partKey][]types.Event)
	for i := range events {
		ev := &events[i]
		key := partKey{agent: ev.AgentID, day: timeutil.DayIndex(ev.Start)}
		parts[key] = append(parts[key], *ev)
	}
	keys := make([]partKey, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].day != keys[j].day {
			return keys[i].day < keys[j].day
		}
		return keys[i].agent < keys[j].agent
	})

	var resolve func(types.EntityID) *types.Entity
	if version >= 3 {
		byID := make(map[types.EntityID]*types.Entity, len(entities))
		for i := range entities {
			byID[entities[i].ID] = &entities[i]
		}
		resolve = func(id types.EntityID) *types.Entity {
			if e, ok := byID[id]; ok {
				return e
			}
			if lookup != nil {
				return lookup(id)
			}
			return nil
		}
	}

	type builtPart struct {
		info segV2PartInfo
		meta []byte
		data []byte
	}
	built := make([]builtPart, 0, len(keys))
	for _, k := range keys {
		evs := parts[k]
		sort.Slice(evs, func(i, j int) bool { return eventLess(&evs[i], &evs[j]) })
		var bp v2PartBuild
		var err error
		if version >= 3 {
			bp, err = buildV3Partition(k, evs, resolve)
		} else {
			bp, err = buildV2Partition(k, evs)
		}
		if err != nil {
			return nil, err
		}
		built = append(built, builtPart{info: bp.info, meta: bp.meta, data: bp.data})
	}

	// Assign offsets: header | directory | meta+data per partition | entities.
	off := uint64(segHeaderLen + len(built)*segV2DirEntry)
	for i := range built {
		bp := &built[i]
		bp.info.metaOff, bp.info.metaLen = off, uint64(len(bp.meta))
		off += uint64(len(bp.meta))
		bp.info.dataOff, bp.info.dataLen = off, uint64(len(bp.data))
		off += uint64(len(bp.data))
	}
	var entBlock []byte
	for i := range entities {
		entBlock = appendEntity(entBlock, &entities[i])
	}
	entityOff := off

	dirBytes := make([]byte, 0, len(built)*segV2DirEntry)
	for i := range built {
		e := &built[i].info
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(int64(e.key.agent)))
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(int64(e.key.day)))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, uint32(e.nEvents))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, uint32(e.nBlocks))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, uint32(e.nDict))
		dirBytes = binary.LittleEndian.AppendUint32(dirBytes, e.metaCRC)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(e.minStart))
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, uint64(e.maxStart))
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.metaOff)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.metaLen)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.dataOff)
		dirBytes = binary.LittleEndian.AppendUint64(dirBytes, e.dataLen)
	}

	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, firstSeq)
	hdr = binary.LittleEndian.AppendUint64(hdr, lastSeq)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(built)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(entities)))
	hdr = binary.LittleEndian.AppendUint64(hdr, entityOff)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(entBlock)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(entBlock, castagnoli))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(dirBytes, castagnoli))

	final := filepath.Join(dir, segFileName(firstSeq, lastSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
			os.Remove(tmp)
		}
	}()
	chunks := [][]byte{hdr, dirBytes}
	for i := range built {
		chunks = append(chunks, built[i].meta, built[i].data)
	}
	chunks = append(chunks, entBlock)
	for _, chunk := range chunks {
		if _, err := f.Write(chunk); err != nil {
			return nil, fmt.Errorf("storage: segment: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	// Validate before the rename makes the file authoritative — same
	// contract as v1: a failure leaves a sweepable .tmp, never a renamed
	// file the caller failed to track.
	sf, err := openSegmentCols(tmp, magic, version)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	ok = true
	sf.path = final
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return sf, nil
}

type v2PartBuild struct {
	info segV2PartInfo
	meta []byte
	data []byte
}

// buildV2Partition encodes one sorted partition into its meta and data
// regions.
func buildV2Partition(k partKey, evs []types.Event) (v2PartBuild, error) {
	n := len(evs)
	// Dictionary: sorted unique subject ∪ object ids.
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

	// Posting lists: event positions per dict entry, naturally ascending
	// because events are appended in sorted order.
	subjPos := make([][]uint32, len(dict))
	objPos := make([][]uint32, len(dict))
	for i := range evs {
		s, o := slot[evs[i].Subject], slot[evs[i].Object]
		subjPos[s] = append(subjPos[s], uint32(i))
		objPos[o] = append(objPos[o], uint32(i))
	}

	// Blocks + zone maps.
	nBlocks := (n + segV2BlockRows - 1) / segV2BlockRows
	zones := make([]segV2Zone, 0, nBlocks)
	data := make([]byte, 0, n*segV2RowBytes)
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
		}
		if delta := z.maxStart - z.minStart; delta < 0 || delta > int64(^uint32(0)) {
			return v2PartBuild{}, fmt.Errorf("storage: segment: partition (%d,%d) start span %d overflows delta encoding", k.agent, k.day, delta)
		}
		bb := make([]byte, 0, len(block)*segV2RowBytes)
		for i := range block {
			bb = binary.LittleEndian.AppendUint32(bb, uint32(block[i].Start-z.minStart))
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint64(bb, uint64(block[i].End))
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint64(bb, uint64(block[i].ID))
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint64(bb, block[i].Seq)
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint64(bb, uint64(block[i].Amount))
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint64(bb, uint64(int64(block[i].FailCode)))
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint32(bb, slot[block[i].Subject])
		}
		for i := range block {
			bb = binary.LittleEndian.AppendUint32(bb, slot[block[i].Object])
		}
		for i := range block {
			bb = append(bb, byte(block[i].Op))
		}
		z.crc = crc32.Checksum(bb, castagnoli)
		zones = append(zones, z)
		data = append(data, bb...)
	}

	// Meta region: dict | zones | bounds | posts.
	meta := make([]byte, 0, len(dict)*8+nBlocks*segV2ZoneBytes+(2*len(dict)+1)*4+2*n*4)
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

// openSegmentV2 reads a v2 segment's header and directory only, bounding
// and cross-checking every count and offset so later lazy loads can trust
// the directory arithmetic.
func openSegmentV2(path string) (*segmentV2File, error) {
	return openSegmentCols(path, segV2Magic, 2)
}

// openSegmentCols is the shared open path behind openSegmentV2 and
// openSegmentV3: identical header and directory layout, version-specific
// per-partition arithmetic.
func openSegmentCols(path, magic string, version int) (*segmentV2File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: segment: %w", err)
	}
	size := uint64(fi.Size())
	hdr := make([]byte, segHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, corruptf(path, "short header: %v", err)
	}
	if string(hdr[:8]) != magic {
		return nil, corruptf(path, "bad magic")
	}
	sf := &segmentV2File{
		path:      path,
		version:   version,
		firstSeq:  binary.LittleEndian.Uint64(hdr[8:]),
		lastSeq:   binary.LittleEndian.Uint64(hdr[16:]),
		nEntities: int(binary.LittleEndian.Uint32(hdr[28:])),
		entityOff: binary.LittleEndian.Uint64(hdr[32:]),
		entityLen: binary.LittleEndian.Uint64(hdr[40:]),
		entityCRC: binary.LittleEndian.Uint32(hdr[48:]),
	}
	if sf.entityOff > size || sf.entityLen > size-sf.entityOff {
		return nil, corruptf(path, "entity block [%d,+%d) exceeds file size %d", sf.entityOff, sf.entityLen, size)
	}
	if uint64(sf.nEntities) > sf.entityLen {
		return nil, corruptf(path, "implausible entity count %d for %d-byte block", sf.nEntities, sf.entityLen)
	}
	nParts := int(binary.LittleEndian.Uint32(hdr[24:]))
	dirCRC := binary.LittleEndian.Uint32(hdr[52:])
	if nParts < 0 || uint64(nParts) > size/segV2DirEntry {
		return nil, corruptf(path, "implausible partition count %d", nParts)
	}
	dirBytes := make([]byte, nParts*segV2DirEntry)
	if _, err := f.ReadAt(dirBytes, segHeaderLen); err != nil {
		return nil, corruptf(path, "short directory: %v", err)
	}
	if crc32.Checksum(dirBytes, castagnoli) != dirCRC {
		return nil, corruptf(path, "directory checksum mismatch")
	}
	sf.parts = make([]segV2Part, nParts)
	for i := 0; i < nParts; i++ {
		b := dirBytes[i*segV2DirEntry:]
		pi := &sf.parts[i]
		pi.key = partKey{
			agent: int(int64(binary.LittleEndian.Uint64(b[0:]))),
			day:   int(int64(binary.LittleEndian.Uint64(b[8:]))),
		}
		pi.nEvents = int(binary.LittleEndian.Uint32(b[16:]))
		pi.nBlocks = int(binary.LittleEndian.Uint32(b[20:]))
		pi.nDict = int(binary.LittleEndian.Uint32(b[24:]))
		pi.metaCRC = binary.LittleEndian.Uint32(b[28:])
		pi.minStart = int64(binary.LittleEndian.Uint64(b[32:]))
		pi.maxStart = int64(binary.LittleEndian.Uint64(b[40:]))
		pi.metaOff = binary.LittleEndian.Uint64(b[48:])
		pi.metaLen = binary.LittleEndian.Uint64(b[56:])
		pi.dataOff = binary.LittleEndian.Uint64(b[64:])
		pi.dataLen = binary.LittleEndian.Uint64(b[72:])
		if err := checkV2PartInfo(path, pi, size, version); err != nil {
			return nil, err
		}
	}
	return sf, nil
}

// checkV2PartInfo verifies one directory entry's internal arithmetic: all
// lengths are functions of the counts, all regions sit inside the file.
// v3 data regions are variable-length (compressed), so their length is
// bounded rather than exact; the per-zone offsets are validated against it
// when the meta region decodes.
func checkV2PartInfo(path string, pi *segV2Part, size uint64, version int) error {
	at := func(format string, args ...any) error {
		return corruptf(path, "partition (%d,%d): %s", pi.key.agent, pi.key.day, fmt.Sprintf(format, args...))
	}
	if pi.nEvents <= 0 {
		return at("implausible event count %d", pi.nEvents)
	}
	if want := (pi.nEvents + segV2BlockRows - 1) / segV2BlockRows; pi.nBlocks != want {
		return at("block count %d, want %d for %d events", pi.nBlocks, want, pi.nEvents)
	}
	if pi.nDict <= 0 || pi.nDict > 2*pi.nEvents {
		return at("implausible dictionary size %d for %d events", pi.nDict, pi.nEvents)
	}
	if pi.minStart > pi.maxStart {
		return at("time range inverted")
	}
	zoneBytes := uint64(segV2ZoneBytes)
	if version >= 3 {
		zoneBytes = segV3ZoneBytes
	}
	wantMeta := uint64(pi.nDict)*8 + uint64(pi.nBlocks)*zoneBytes + uint64(2*pi.nDict+1)*4 + uint64(2*pi.nEvents)*4
	if pi.metaLen != wantMeta {
		return at("meta length %d, want %d", pi.metaLen, wantMeta)
	}
	if version >= 3 {
		// Compressed blocks are variable-length: bound the region instead of
		// equating it. Each block stores at least its flag byte, at most the
		// flag plus an encoding that never exceeds segV3MaxRowEnc per row.
		maxData := uint64(pi.nEvents)*segV3MaxRowEnc + uint64(pi.nBlocks)
		if pi.dataLen < uint64(pi.nBlocks) || pi.dataLen > maxData {
			return at("data length %d outside [%d,%d]", pi.dataLen, pi.nBlocks, maxData)
		}
	} else if wantData := uint64(pi.nEvents) * segV2RowBytes; pi.dataLen != wantData {
		return at("data length %d, want %d", pi.dataLen, wantData)
	}
	if pi.metaOff > size || pi.metaLen > size-pi.metaOff {
		return at("meta region [%d,+%d) exceeds file size %d", pi.metaOff, pi.metaLen, size)
	}
	if pi.dataOff > size || pi.dataLen > size-pi.dataOff {
		return at("data region [%d,+%d) exceeds file size %d", pi.dataOff, pi.dataLen, size)
	}
	return nil
}

// loadMeta decodes (once) a partition's dictionary, zone maps and posting
// lists from the mapped file, verifying the region checksum and every
// structural invariant the scan path will rely on.
func (sf *segmentV2File) loadMeta(pi *segV2Part) (*segV2Meta, error) {
	pi.metaOnce.Do(func() {
		m, err := sf.decodeMeta(pi)
		if err != nil {
			pi.metaErr = err
			return
		}
		pi.meta.Store(m)
	})
	return pi.meta.Load(), pi.metaErr
}

func (sf *segmentV2File) decodeMeta(pi *segV2Part) (*segV2Meta, error) {
	if err := sf.ensureMapped(); err != nil {
		return nil, err
	}
	at := func(format string, args ...any) error {
		return corruptf(sf.path, "partition (%d,%d): %s", pi.key.agent, pi.key.day, fmt.Sprintf(format, args...))
	}
	if pi.metaOff+pi.metaLen > uint64(len(sf.data)) {
		return nil, at("meta region exceeds mapped size %d", len(sf.data))
	}
	raw := sf.data[pi.metaOff : pi.metaOff+pi.metaLen]
	if crc32.Checksum(raw, castagnoli) != pi.metaCRC {
		return nil, at("meta checksum mismatch")
	}
	m := &segV2Meta{
		dict:   make([]types.EntityID, pi.nDict),
		zones:  make([]segV2Zone, pi.nBlocks),
		bounds: make([]uint32, 2*pi.nDict+1),
		posts:  make([]uint32, 2*pi.nEvents),
	}
	off := 0
	for i := range m.dict {
		m.dict[i] = types.EntityID(binary.LittleEndian.Uint64(raw[off:]))
		if i > 0 && m.dict[i] <= m.dict[i-1] {
			return nil, at("dictionary not strictly ascending at slot %d", i)
		}
		off += 8
	}
	total := 0
	nextDataOff := uint64(0)
	for i := range m.zones {
		z := &m.zones[i]
		z.count = int(binary.LittleEndian.Uint32(raw[off:]))
		z.crc = binary.LittleEndian.Uint32(raw[off+4:])
		z.minStart = int64(binary.LittleEndian.Uint64(raw[off+8:]))
		z.maxStart = int64(binary.LittleEndian.Uint64(raw[off+16:]))
		z.ops = types.OpSet(binary.LittleEndian.Uint16(raw[off+24:]))
		z.minSubj = binary.LittleEndian.Uint32(raw[off+26:])
		z.maxSubj = binary.LittleEndian.Uint32(raw[off+30:])
		z.minObj = binary.LittleEndian.Uint32(raw[off+34:])
		z.maxObj = binary.LittleEndian.Uint32(raw[off+38:])
		off += segV2ZoneBytes
		if sf.version >= 3 {
			z.subjTri = binary.LittleEndian.Uint64(raw[off:])
			z.objTri = binary.LittleEndian.Uint64(raw[off+8:])
			z.dataOff = binary.LittleEndian.Uint64(raw[off+16:])
			z.dataLen = binary.LittleEndian.Uint32(raw[off+24:])
			z.rawLen = binary.LittleEndian.Uint32(raw[off+28:])
			off += segV3ZoneBytes - segV2ZoneBytes
		}
		if z.count <= 0 || z.count > segV2BlockRows {
			return nil, at("block %d: implausible row count %d", i, z.count)
		}
		if z.minStart > z.maxStart {
			return nil, at("block %d: zone time range inverted", i)
		}
		if i > 0 && z.minStart < m.zones[i-1].maxStart {
			return nil, at("block %d: zone time range overlaps previous block", i)
		}
		if z.minSubj > z.maxSubj || int(z.maxSubj) >= pi.nDict ||
			z.minObj > z.maxObj || int(z.maxObj) >= pi.nDict {
			return nil, at("block %d: zone dictionary range out of bounds", i)
		}
		if sf.version >= 3 {
			// Stored blocks must tile the data region exactly; the raw
			// (decompressed) length is bounded per row so a corrupt zone can
			// never request an unbounded allocation.
			if z.dataOff != nextDataOff {
				return nil, at("block %d: data offset %d, want %d", i, z.dataOff, nextDataOff)
			}
			if z.dataLen < 1 || uint64(z.dataLen) > pi.dataLen-z.dataOff {
				return nil, at("block %d: stored length %d exceeds data region", i, z.dataLen)
			}
			if z.rawLen < 1 || int(z.rawLen) > z.count*segV3MaxRowEnc {
				return nil, at("block %d: implausible raw length %d for %d rows", i, z.rawLen, z.count)
			}
			if z.dataLen > z.rawLen+1 {
				return nil, at("block %d: stored length %d exceeds raw length %d", i, z.dataLen, z.rawLen)
			}
			nextDataOff += uint64(z.dataLen)
		}
		total += z.count
	}
	if total != pi.nEvents {
		return nil, at("zone row counts sum to %d, want %d", total, pi.nEvents)
	}
	if sf.version >= 3 && nextDataOff != pi.dataLen {
		return nil, at("blocks cover %d data bytes, want %d", nextDataOff, pi.dataLen)
	}
	if m.zones[0].minStart != pi.minStart || m.zones[len(m.zones)-1].maxStart != pi.maxStart {
		return nil, at("zone time ranges disagree with directory")
	}
	for i := range m.bounds {
		m.bounds[i] = binary.LittleEndian.Uint32(raw[off:])
		off += 4
		if i > 0 && m.bounds[i] < m.bounds[i-1] {
			return nil, at("posting bounds not monotone at %d", i)
		}
	}
	if m.bounds[0] != 0 || int(m.bounds[len(m.bounds)-1]) != 2*pi.nEvents {
		return nil, at("posting bounds do not cover the position array")
	}
	for i := range m.posts {
		m.posts[i] = binary.LittleEndian.Uint32(raw[off:])
		off += 4
		if int(m.posts[i]) >= pi.nEvents {
			return nil, at("posting position %d out of range", m.posts[i])
		}
	}
	// Each individual posting list must be ascending — the scan path merges
	// them positionally.
	for i := 1; i < len(m.bounds); i++ {
		list := m.posts[m.bounds[i-1]:m.bounds[i]]
		for j := 1; j < len(list); j++ {
			if list[j] <= list[j-1] {
				return nil, at("posting list %d not ascending", i-1)
			}
		}
	}
	return m, nil
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
// and a v3 block steps over the varint columns (and rows) in front of what
// it wants without decoding them. clip narrows the rows of interest to
// [lo, hi) as the scan learns them — the part of the block inside the time
// window, then the span of the rows that passed every predicate: columns
// decoded afterwards hold only those rows (delta chains — starts, ids, seqs
// — from row 0 up to hi), still at their absolute row index, and as a
// pred.ColumnSource the block presents rows lo..hi-1 as its rows
// 0..hi-lo-1. Every check a column's values owe the zone map runs when
// those values are decoded or probed.
//
// Starts are absolute (delta already applied); subject/object probes yield
// dictionary indexes.
type blockCols struct {
	path  string
	key   partKey
	b     int
	z     *segV2Zone
	fixed bool   // v2: fixed-width columns at arithmetic offsets
	n     int    // rows stored
	raw   []byte // the block's encoding: inflated (v3) or mapped (v2)

	lo, hi int // rows of interest; [0, n) until clip narrows them

	subj, obj packedCol
	opsBuf    []byte
	opsWidth  int
	ops       []types.Op
	haveOps   bool

	// Value columns. have marks the decoded ones. A v3 block learns where
	// its varint columns start as it walks them: colOff[k] is known for
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

// openBlock points cols at block b of a partition (whose first row is
// partition row rowBase) without decoding any column. What always runs: the
// checksum over the stored bytes, decompression to exactly the zone's raw
// length (v3), and the arithmetic that places every column — fixed offsets
// for v2, the bit-packed tail counted back from the raw length for v3, which
// must leave room for six varints per row in front of it.
func (sf *segmentV2File) openBlock(pi *segV2Part, m *segV2Meta, b, rowBase int, cols *blockCols) error {
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

	if sf.version < 3 {
		off := pi.dataOff + uint64(rowBase)*segV2RowBytes
		length := uint64(n) * segV2RowBytes
		if off+length > uint64(len(sf.data)) {
			return cols.corrupt("exceeds mapped size %d", len(sf.data))
		}
		raw := sf.data[off : off+length]
		if crc32.Checksum(raw, castagnoli) != z.crc {
			return cols.corrupt("checksum mismatch")
		}
		cols.fixed, cols.raw = true, raw
		cols.colOff = [...]int{0, 4 * n, 12 * n, 20 * n, 28 * n, 36 * n, 44 * n}
		cols.subj.buf, cols.subj.width = raw[44*n:], 32
		cols.obj.buf, cols.obj.width = raw[48*n:], 32
		cols.opsBuf, cols.opsWidth = raw[52*n:], 8
		return nil
	}

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
	cols.fixed, cols.raw = false, raw
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
		c.ops = make([]types.Op, segV2BlockRows)
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
	if !c.fixed && mask&(1<<colEnds) != 0 {
		mask |= 1 << colStarts // v3 ends are stored relative to their start
	}
	for k := 0; k <= colAgents; k++ {
		if mask&^c.have&(1<<k) == 0 {
			continue
		}
		if c.vals[k] == nil {
			c.vals[k] = make([]int64, segV2BlockRows)
		}
		// Starts are checked, and v3 ids and seqs summed, from the block's
		// first row.
		lo := c.lo
		if k == colStarts || (!c.fixed && (k == colIDs || k == colSeqs)) {
			lo = 0
		}
		var err error
		switch {
		case k == colAgents:
			for i := lo; i < c.hi; i++ {
				c.vals[k][i] = int64(c.key.agent)
			}
		case c.fixed:
			err = c.decodeFixed(k, lo)
		default:
			err = c.decodeVarints(k, lo)
		}
		if err != nil {
			c.err = err
			return err
		}
		c.have |= 1 << k
	}
	return nil
}

// decodeFixed decodes rows [lo, hi) of stored column k of a v2 block.
func (c *blockCols) decodeFixed(k, lo int) error {
	out, raw := c.vals[k][lo:c.hi], c.raw[c.colOff[k]:]
	if k != colStarts {
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(raw[8*(lo+i):]))
		}
		return nil
	}
	z := c.z
	prev, span := int64(-1), z.maxStart-z.minStart
	for i := range out {
		delta := int64(binary.LittleEndian.Uint32(raw[4*i:]))
		if delta > span {
			return c.corrupt("row %d: start outside zone time range", i)
		}
		start := z.minStart + delta
		if start < prev {
			return c.corrupt("row %d: starts not sorted", i)
		}
		prev = start
		out[i] = start
	}
	return nil
}

// decodeVarints decodes rows [lo, hi) of stored column k of a v3 block:
// step over the undecoded columns and rows in front of them, read the codes,
// undo the column's residual.
func (c *blockCols) decodeVarints(k, lo int) error {
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
func (c *blockCols) event(i int, m *segV2Meta, ev *types.Event) (sdi, odi uint32, err error) {
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

// loadEntities reads, verifies and decodes the entity block via the file
// handle (called at open, before any mapping exists).
func (sf *segmentV2File) loadEntities(f *os.File) ([]types.Entity, error) {
	return readEntityBlock(sf.path, f, sf.entityOff, sf.entityLen, sf.entityCRC, sf.nEntities)
}

// events returns the total event count across the segment's partitions.
func (sf *segmentV2File) events() int {
	n := 0
	for i := range sf.parts {
		n += sf.parts[i].nEvents
	}
	return n
}
