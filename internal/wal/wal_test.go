package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("record-%05d", from+i))
		seq, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(from+i) {
			t.Fatalf("Append returned seq %d, want %d", seq, from+i)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func collect(t *testing.T, l *Log, after uint64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	if err := l.Replay(after, func(seq uint64, payload []byte) error {
		out[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	got := collect(t, l, 0)
	if len(got) != 10 || got[1] != "record-00001" || got[10] != "record-00010" {
		t.Fatalf("replay = %v", got)
	}
	if got := collect(t, l, 7); len(got) != 3 {
		t.Fatalf("replay after 7 returned %d records, want 3", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the sequence.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", l2.LastSeq())
	}
	appendN(t, l2, 11, 5)
	if got := collect(t, l2, 0); len(got) != 15 {
		t.Fatalf("replay after reopen = %d records, want 15", len(got))
	}
}

// TestTornTailTruncated simulates a crash mid-append: the last file is cut
// at every byte offset inside its final record, and Open must recover the
// intact prefix each time.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 5, 8, 12, 15, 16, 20} {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, 3)
		_, full := l.Depth()
		l.Close()

		names, err := listFiles(dir)
		if err != nil || len(names) != 1 {
			t.Fatalf("files = %v (%v)", names, err)
		}
		path := filepath.Join(dir, names[0])
		// The last record is "record-00003" (12 bytes) + 16 header bytes.
		if err := os.Truncate(path, full-cut); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		got := collect(t, l2, 0)
		if len(got) != 2 || got[1] == "" || got[2] == "" {
			t.Fatalf("cut %d: replay = %v, want records 1,2", cut, got)
		}
		// The log must be appendable after truncation, reusing seq 3.
		if seq, err := l2.Append([]byte("retry")); err != nil || seq != 3 {
			t.Fatalf("cut %d: append after truncation: seq=%d err=%v", cut, seq, err)
		}
		if got := collect(t, l2, 0); got[3] != "retry" {
			t.Fatalf("cut %d: replay after retry = %v", cut, got)
		}
		l2.Close()
	}
}

// TestCorruptPayloadTruncated flips a byte in the final record's payload;
// the checksum must catch it and recovery must drop exactly that record.
func TestCorruptPayloadTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	l.Close()

	names, _ := listFiles(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("replay after corruption = %v, want 2 records", got)
	}
}

// TestCorruptSealedFileIsError: corruption outside the newest file means
// the synced history is damaged — recovery must refuse, not guess.
func TestCorruptSealedFileIsError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 2)
	l.Close()

	names, _ := listFiles(dir)
	if len(names) != 2 {
		t.Fatalf("files = %v, want 2", names)
	}
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed file")
	}
}

func TestRotateAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 4)
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 || sealed[0].First != 1 || sealed[0].Last != 4 {
		t.Fatalf("sealed = %+v", sealed)
	}
	appendN(t, l, 5, 2)

	if err := l.RemoveThrough(4); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, 0); len(got) != 2 || got[5] == "" || got[6] == "" {
		t.Fatalf("replay after remove = %v", got)
	}
	recs, _ := l.Depth()
	if recs != 2 {
		t.Fatalf("depth after remove = %d records, want 2", recs)
	}
	names, _ := listFiles(dir)
	if len(names) != 1 {
		t.Fatalf("files after remove = %v, want 1", names)
	}

	// Reopen sees only the surviving records, still in sequence.
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d, want 6", l2.LastSeq())
	}
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("replay after reopen = %v", got)
	}
}

func TestFileSizeRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxFileBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := listFiles(dir)
	if len(names) < 3 {
		t.Fatalf("size-based rotation produced %d files, want >= 3", len(names))
	}
	if got := collect(t, l, 0); len(got) != 6 {
		t.Fatalf("replay across rotated files = %d records, want 6", len(got))
	}
}

func TestEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	if got := collect(t, l, 0); len(got) != 0 {
		t.Fatalf("empty replay = %v", got)
	}
	recs, b := l.Depth()
	if recs != 0 || b != 0 {
		t.Fatalf("depth = %d/%d", recs, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncReportsActiveFileError pins the contract the storage layer's
// fsync latch rests on: a failed fsync of the active file surfaces from
// Sync as an error, never as silent success. The failure is injected by
// closing the active file underneath the log.
func TestSyncReportsActiveFileError(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 1)
	l.mu.Lock()
	l.active.Close()
	l.mu.Unlock()
	err = l.Sync()
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Sync after the active file failed = %v, want an os.ErrClosed error", err)
	}
	if n, _ := l.SyncStats(); n != 2 {
		t.Fatalf("fsyncs = %d, want 2 (the failed one counts)", n)
	}
}
