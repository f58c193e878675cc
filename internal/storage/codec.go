package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"aiql/internal/types"
)

// castagnoli is the CRC-32C table shared by segment blocks; the WAL uses
// the same polynomial for its records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Binary codec for entities, events and ingest batches — the WAL record
// payload, whose entity encoding segment files reuse. Events are
// fixed-width (eventWireBytes); entities are length-prefixed because
// attributes are variable. All integers little-endian. The codec is
// deliberately not self-describing: WAL records and segment entity blocks
// carry checksums and counts around it, so a decode error here always means
// corruption that the outer layer failed to catch, not a format negotiation
// problem.

const eventWireBytes = 9*8 + 1 // 9 fixed 64-bit fields + op byte

func appendEvent(buf []byte, ev *types.Event) []byte {
	var b [eventWireBytes]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.ID))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(ev.AgentID)))
	binary.LittleEndian.PutUint64(b[16:], uint64(ev.Subject))
	binary.LittleEndian.PutUint64(b[24:], uint64(ev.Object))
	binary.LittleEndian.PutUint64(b[32:], uint64(ev.Start))
	binary.LittleEndian.PutUint64(b[40:], uint64(ev.End))
	binary.LittleEndian.PutUint64(b[48:], ev.Seq)
	binary.LittleEndian.PutUint64(b[56:], uint64(ev.Amount))
	binary.LittleEndian.PutUint64(b[64:], uint64(int64(ev.FailCode)))
	b[72] = byte(ev.Op)
	return append(buf, b[:]...)
}

func decodeEvent(b []byte) (types.Event, error) {
	if len(b) < eventWireBytes {
		return types.Event{}, fmt.Errorf("storage: short event record (%d bytes)", len(b))
	}
	return types.Event{
		ID:       types.EventID(binary.LittleEndian.Uint64(b[0:])),
		AgentID:  int(int64(binary.LittleEndian.Uint64(b[8:]))),
		Subject:  types.EntityID(binary.LittleEndian.Uint64(b[16:])),
		Object:   types.EntityID(binary.LittleEndian.Uint64(b[24:])),
		Start:    int64(binary.LittleEndian.Uint64(b[32:])),
		End:      int64(binary.LittleEndian.Uint64(b[40:])),
		Seq:      binary.LittleEndian.Uint64(b[48:]),
		Amount:   int64(binary.LittleEndian.Uint64(b[56:])),
		FailCode: int(int64(binary.LittleEndian.Uint64(b[64:]))),
		Op:       types.Op(b[72]),
	}, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendEntity(buf []byte, e *types.Entity) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
	buf = append(buf, byte(e.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(e.AgentID)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Attrs)))
	// Attributes go out in key order, so an entity has one byte form. The
	// keys sort in a stack array; entities carry a handful of attributes.
	var stack [16]string
	keys := stack[:0]
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, e.Attrs[k])
	}
	return buf
}

// decoder tracks an offset through a byte slice, failing closed on any
// out-of-bounds read.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("storage: truncated record at offset %d", d.off)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || int(n) > len(d.b)-d.off {
		d.fail()
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) entity() types.Entity {
	e := types.Entity{
		ID:      types.EntityID(d.u64()),
		Type:    types.EntityType(d.byte()),
		AgentID: int(int64(d.u64())),
	}
	n := d.u32()
	if d.err != nil {
		return e
	}
	// Bound the decoded count before sizing the map: every attribute pair
	// costs at least two u32 length prefixes, so a count beyond the
	// remaining bytes is corruption, not a size hint.
	if int(n) > (len(d.b)-d.off)/8+1 {
		d.fail()
		return e
	}
	e.Attrs = make(map[string]string, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		k := d.str()
		e.Attrs[k] = d.str()
	}
	return e
}

func (d *decoder) event() types.Event {
	b := d.take(eventWireBytes)
	if b == nil {
		return types.Event{}
	}
	ev, err := decodeEvent(b)
	if err != nil && d.err == nil {
		d.err = err
	}
	return ev
}

// AppendBatch appends a batch in the WAL record layout to buf: a u32 count
// and the entities, then a u32 count and the events. Besides the WAL, it is
// the row payload of the cluster's /scan frames, so entities and events
// cross the network in the same encoding they are journaled in.
func AppendBatch(buf []byte, entities []types.Entity, events []types.Event) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entities)))
	for i := range entities {
		buf = appendEntity(buf, &entities[i])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(events)))
	for i := range events {
		buf = appendEvent(buf, &events[i])
	}
	return buf
}

// DecodeBatch parses a payload in AppendBatch's layout back into its
// entities and events. Strings are copied out, so payload may be reused
// once it returns. Like the rest of the codec it checks bounds, not
// meaning: an entity type or operation outside this build's enums decodes
// as is.
func DecodeBatch(payload []byte) ([]types.Entity, []types.Event, error) {
	d := &decoder{b: payload}
	ne := d.u32()
	if d.err != nil {
		return nil, nil, d.err
	}
	if int(ne) > len(payload) { // each entity needs >= 1 byte
		return nil, nil, fmt.Errorf("storage: implausible entity count %d", ne)
	}
	entities := make([]types.Entity, 0, ne)
	for i := uint32(0); i < ne && d.err == nil; i++ {
		entities = append(entities, d.entity())
	}
	nv := d.u32()
	if d.err != nil {
		return nil, nil, d.err
	}
	if int(nv) > (len(payload)-d.off)/eventWireBytes+1 {
		return nil, nil, fmt.Errorf("storage: implausible event count %d", nv)
	}
	events := make([]types.Event, 0, nv)
	for i := uint32(0); i < nv && d.err == nil; i++ {
		events = append(events, d.event())
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.off != len(payload) {
		return nil, nil, fmt.Errorf("storage: %d trailing bytes after batch", len(payload)-d.off)
	}
	return entities, events, nil
}
