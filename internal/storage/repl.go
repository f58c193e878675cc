package storage

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"aiql/internal/types"
)

// Replicated ingest: idempotent apply by (epoch, shard, seq).
//
// The cluster coordinator writes every home-shard batch to a primary and a
// replica worker, and a recovering replica catches up by pulling the
// primary's WAL over HTTP. Both paths can deliver the same batch more than
// once — a coordinator retry after a transient error, a catch-up re-pull
// after a truncated ship — so each batch carries a replication tag and the
// store remembers which tags it has applied: a re-delivered batch is a
// no-op, not a duplicate.
//
// The tag's epoch is a nonce minted per coordinator process, so sequence
// numbers from a restarted coordinator can never collide with an earlier
// life's; within an epoch the coordinator assigns a dense per-shard
// sequence. Applied tags are tracked as a watermark plus a sparse set of
// applied sequences above it — a gap (one copy's POST failed while later
// batches landed) keeps the watermark low and the set sparse until catch-up
// fills it.
//
// Durability: tags ride inside the WAL record payload (a sentinel-marked
// extension of the batch codec), so recovery replay rebuilds the dedup
// state. Compaction folds records into segments, which do not carry tags —
// the compactor therefore snapshots the replication state into a sidecar
// file (repl-state.json) before deleting consumed WAL files, and recovery
// loads the sidecar before replaying the WAL suffix.

// ReplTag identifies one replicated ingest batch.
type ReplTag struct {
	// Epoch is the coordinator's per-process nonce.
	Epoch string `json:"epoch"`
	// Shard is the logical home shard the batch belongs to.
	Shard int `json:"shard"`
	// Seq is the coordinator's per-(epoch, shard) batch sequence, from 1.
	Seq uint64 `json:"seq"`
}

func (t ReplTag) String() string {
	return fmt.Sprintf("%s/%d/%d", t.Epoch, t.Shard, t.Seq)
}

// replKey addresses one (epoch, shard) replication stream.
type replKey struct {
	epoch string
	shard int
}

// replShard is the applied-set for one (epoch, shard) stream: every seq in
// [1, watermark] is applied, plus the sparse set above the watermark.
type replShard struct {
	watermark uint64
	sparse    map[uint64]struct{}
}

func (rs *replShard) applied(seq uint64) bool {
	if seq <= rs.watermark {
		return true
	}
	_, ok := rs.sparse[seq]
	return ok
}

func (rs *replShard) record(seq uint64) {
	if seq <= rs.watermark {
		return
	}
	if seq == rs.watermark+1 {
		rs.watermark = seq
		// Absorb any contiguous run the gap's fill just connected.
		for {
			if _, ok := rs.sparse[rs.watermark+1]; !ok {
				break
			}
			delete(rs.sparse, rs.watermark+1)
			rs.watermark++
		}
		return
	}
	if rs.sparse == nil {
		rs.sparse = make(map[uint64]struct{})
	}
	rs.sparse[seq] = struct{}{}
}

// ReplShardState is the externally visible applied-set of one (epoch,
// shard) stream — exported as a /metrics watermark and shipped to catch-up
// peers so a requester can prove it now covers everything the peer applied.
type ReplShardState struct {
	Epoch     string   `json:"epoch"`
	Shard     int      `json:"shard"`
	Watermark uint64   `json:"watermark"`
	Sparse    []uint64 `json:"sparse,omitempty"`
}

// Covers reports whether local covers every sequence peer has applied.
func (local ReplShardState) Covers(peer ReplShardState) bool {
	inLocal := func(seq uint64) bool { return seq <= local.Watermark || slices.Contains(local.Sparse, seq) }
	for seq := local.Watermark + 1; seq <= peer.Watermark; seq++ {
		if !inLocal(seq) {
			return false
		}
	}
	for _, s := range peer.Sparse {
		if !inLocal(s) {
			return false
		}
	}
	return true
}

// ReplStats is a snapshot of one store's replicated-ingest counters.
type ReplStats struct {
	// Applied counts tagged batches applied; Duplicates counts tagged
	// batches skipped because their tag was already applied (coordinator
	// retries, catch-up overlap).
	Applied    uint64
	Duplicates uint64
	Shards     []ReplShardState
}

// replAppliedLocked reports whether the tag is already applied, counting a
// duplicate when it is. Callers hold tapMu.
func (s *Store) replAppliedLocked(tag ReplTag) bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if rs, ok := s.repl[replKey{tag.Epoch, tag.Shard}]; ok && rs.applied(tag.Seq) {
		s.replDuplicates++
		return true
	}
	return false
}

// replRecord marks the tag applied. Recovery's tag scan also calls it, so
// it deliberately does not touch the applied counter — only live tagged
// ingests count there.
func (s *Store) replRecord(tag ReplTag) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.replShardLocked(replKey{tag.Epoch, tag.Shard}).record(tag.Seq)
}

// replShardLocked returns the applied-set of one stream, creating it on
// first use.
//
// aiql:locked replMu
func (s *Store) replShardLocked(k replKey) *replShard {
	if s.repl == nil {
		s.repl = make(map[replKey]*replShard)
	}
	rs, ok := s.repl[k]
	if !ok {
		rs = &replShard{}
		s.repl[k] = rs
	}
	return rs
}

// state renders the applied-set of stream k. Callers hold replMu.
func (rs *replShard) state(k replKey) ReplShardState {
	st := ReplShardState{Epoch: k.epoch, Shard: k.shard, Watermark: rs.watermark}
	for seq := range rs.sparse {
		st.Sparse = append(st.Sparse, seq)
	}
	slices.Sort(st.Sparse)
	return st
}

// ReplStats returns the store's replication applied-state and counters.
func (s *Store) ReplStats() ReplStats {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	out := ReplStats{Applied: s.replApplied, Duplicates: s.replDuplicates}
	for k, rs := range s.repl {
		out.Shards = append(out.Shards, rs.state(k))
	}
	slices.SortFunc(out.Shards, func(a, b ReplShardState) int {
		return cmp.Or(strings.Compare(a.Epoch, b.Epoch), a.Shard-b.Shard)
	})
	return out
}

// ReplState returns the applied-set for one (epoch, shard) stream.
func (s *Store) ReplState(epoch string, shard int) ReplShardState {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if rs, ok := s.repl[replKey{epoch, shard}]; ok {
		return rs.state(replKey{epoch, shard})
	}
	return ReplShardState{Epoch: epoch, Shard: shard}
}

// taggedSentinel marks a WAL payload as tag-extended. An untagged payload
// opens with its entity count, and DecodeBatch rejects any count larger
// than the payload itself — so the all-ones word can never open a valid
// untagged batch, and the two encodings are unambiguous.
const taggedSentinel = ^uint32(0)

// EncodeBatch serializes one ingest batch, a WAL record payload: the
// standard batch payload (AppendBatch), behind the sentinel and the tag when
// tag is non-nil. A tagged batch has this one byte form everywhere: the WAL
// record, the body a coordinator posts to a worker's /ingest, and a
// /walship batch frame.
func EncodeBatch(tag *ReplTag, entities []types.Entity, events []types.Event) []byte {
	buf := make([]byte, 0, 64+len(events)*eventWireBytes+len(entities)*32)
	if tag != nil {
		buf = binary.LittleEndian.AppendUint32(buf, taggedSentinel)
		buf = appendString(buf, tag.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(tag.Shard)))
		buf = binary.LittleEndian.AppendUint64(buf, tag.Seq)
	}
	return AppendBatch(buf, entities, events)
}

// DecodeMaybeTagged parses a WAL payload in either encoding, returning a
// nil tag for plain batches. Recovery runs it on every WAL record and a
// worker on every replicated batch it receives.
func DecodeMaybeTagged(payload []byte) (*ReplTag, []types.Entity, []types.Event, error) {
	tag, off, err := peekTag(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	entities, events, err := DecodeBatch(payload[off:])
	return tag, entities, events, err
}

// peekTag parses just the tag prefix of a payload, without decoding the
// batch — the cheap form recovery's tag scan uses — and returns the offset
// of the batch behind it: a nil tag and 0 for an untagged payload.
func peekTag(payload []byte) (*ReplTag, int, error) {
	if len(payload) < 4 || binary.LittleEndian.Uint32(payload) != taggedSentinel {
		return nil, 0, nil
	}
	d := &decoder{b: payload, off: 4}
	tag := &ReplTag{Epoch: d.str()}
	tag.Shard = int(int64(d.u64()))
	tag.Seq = d.u64()
	if d.err != nil {
		return nil, 0, d.err
	}
	return tag, d.off, nil
}

// ShipReplicated replays every tagged record still in the WAL whose shard
// is in the requested set, calling fn with the record's payload unmodified
// (EncodeBatch's layout). Compaction is held off for the duration so
// WAL files cannot disappear mid-ship. Records folded into segments are not
// shippable; the caller compares the returned state (this store's
// applied-set for the requested shards) against what it received to detect
// that gap.
func (p *Persistent) ShipReplicated(shards map[int]bool, fn func(payload []byte) error) ([]ReplShardState, error) {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	err := p.log.Replay(0, func(seq uint64, payload []byte) error {
		if tag, _, _ := peekTag(payload); tag == nil || (shards != nil && !shards[tag.Shard]) {
			return nil
		}
		return fn(payload)
	})
	if err != nil {
		return nil, err
	}
	var states []ReplShardState
	for _, st := range p.Store.ReplStats().Shards {
		if shards == nil || shards[st.Shard] {
			states = append(states, st)
		}
	}
	return states, nil
}

// replSidecar is the JSON layout of repl-state.json.
type replSidecar struct {
	Shards []ReplShardState `json:"shards"`
}

func (p *Persistent) replSidecarPath() string {
	return filepath.Join(p.dir, "repl-state.json")
}

// saveReplSidecar snapshots the current applied-set to disk (atomic
// tmp+rename+fsync). Compact calls it after the segment rename and before
// deleting the consumed WAL files: tags of folded records would otherwise
// be lost, and a catch-up peer could re-apply their batches. The snapshot
// may also cover tags whose records are still in the WAL — harmless, since
// recovery's WAL replay applies by WAL sequence, not by tag.
func (p *Persistent) saveReplSidecar() error {
	sc := replSidecar{Shards: p.Store.ReplStats().Shards}
	if len(sc.Shards) == 0 {
		return nil
	}
	data, err := json.Marshal(&sc)
	if err != nil {
		return err
	}
	tmp := p.replSidecarPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: repl sidecar: %w", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: repl sidecar: %w", err)
	}
	if err := os.Rename(tmp, p.replSidecarPath()); err != nil {
		return fmt.Errorf("storage: repl sidecar: %w", err)
	}
	return nil
}

// loadReplSidecar seeds the applied-set from a prior compaction's snapshot.
// Runs at open, before the WAL tag scan and replay layer their own tags on
// top (replRecord is idempotent, so overlap is free).
func (p *Persistent) loadReplSidecar() error {
	data, err := os.ReadFile(p.replSidecarPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: repl sidecar: %w", err)
	}
	var sc replSidecar
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("storage: repl sidecar: %w", err)
	}
	p.Store.replMu.Lock()
	defer p.Store.replMu.Unlock()
	for _, st := range sc.Shards {
		rs := p.Store.replShardLocked(replKey{st.Epoch, st.Shard})
		rs.watermark = max(rs.watermark, st.Watermark)
		for _, seq := range st.Sparse {
			rs.record(seq)
		}
	}
	return nil
}
