package storage

import (
	"reflect"
	"testing"

	"aiql/internal/types"
)

// FuzzBatchCodec fuzzes the WAL batch codec, the decoder recovery runs on
// every WAL record and a worker runs on every replicated batch it receives:
// a coordinator's /ingest body and each /walship frame a catch-up applies. Arbitrary
// bytes must decode to an error or a batch, never a panic; whatever decodes,
// tagged or untagged, must round-trip exactly through its encoding.
func FuzzBatchCodec(f *testing.F) {
	entities := []types.Entity{
		{ID: 7, Type: types.EntityProcess, AgentID: 2, Attrs: map[string]string{types.AttrExeName: "/bin/sh", types.AttrPID: "42"}},
		{ID: 9, Type: types.EntityFile, AgentID: -1, Attrs: map[string]string{}},
	}
	events := []types.Event{
		{ID: 1, AgentID: 2, Subject: 7, Object: 9, Op: types.OpWrite, Start: -1000, End: 1001, Seq: 3, Amount: -5, FailCode: 1},
	}
	f.Add(EncodeBatch(nil, nil, nil))
	f.Add(EncodeBatch(nil, entities, events))
	f.Add(EncodeBatch(&ReplTag{Epoch: "e1", Shard: 3, Seq: 9}, entities, events))
	f.Add(EncodeBatch(&ReplTag{Shard: -1}, nil, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		peeked, _, _ := peekTag(data)
		tag, ents, evs, err := DecodeMaybeTagged(data)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(peeked, tag) {
			t.Fatalf("peekTag = %v, DecodeMaybeTagged tag = %v", peeked, tag)
		}
		payload := EncodeBatch(tag, ents, evs)
		tag2, ents2, evs2, err := DecodeMaybeTagged(payload)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(tag2, tag) || !reflect.DeepEqual(ents2, ents) || !reflect.DeepEqual(evs2, evs) {
			t.Fatalf("round trip changed the batch: tag %v→%v, %d→%d entities, %d→%d events",
				tag, tag2, len(ents), len(ents2), len(evs), len(evs2))
		}
	})
}
