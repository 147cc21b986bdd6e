package durable_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dtexl/internal/durable"
	"dtexl/internal/perfdb"
	"dtexl/internal/sim"
)

// fuzzRecord is one pristine record: where its writer put it, its bytes,
// and the key and result ReadRecord returns for it.
type fuzzRecord struct {
	name        string
	path        string
	raw         []byte
	key, result []byte
}

// only returns the one file matching pattern.
func only(f *testing.F, pattern string) string {
	f.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) != 1 {
		f.Fatalf("%s: %v, %v; want exactly one file", pattern, paths, err)
	}
	return paths[0]
}

// FuzzReadRecord fuzzes the one verifier of every persisted file. Each
// writer's record — a result-store entry (the only keyed one), a
// perf-database batch and an epoch claim — is truncated and
// bit-flipped, and ReadRecord must either fail as corrupt or return
// exactly the bytes that were written. A fuzzed store entry must either
// miss or be served under its own key.
func FuzzReadRecord(f *testing.F) {
	dir := f.TempDir()
	missing := filepath.Join(dir, "missing")
	var raw json.RawMessage
	if _, err := durable.ReadRecord(missing, &raw); !errors.Is(err, os.ErrNotExist) || errors.Is(err, durable.ErrCorrupt) {
		f.Fatalf("ReadRecord of a missing file: %v, want not-exist and not corrupt", err)
	}

	opt := sim.ScaledOptions(16)
	opt.Benchmarks = []string{"TRu"}
	st, err := sim.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		f.Fatal(err)
	}
	st.Logf = func(string, ...any) {}
	cell := sim.SuiteCells(opt)[0]
	res, err := sim.NewRunner(opt).RunCell(context.Background(), cell)
	if err != nil {
		f.Fatal(err)
	}
	rb, _, err := sim.MarshalCellResult(res)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.RecordCellResult(opt, cell, rb); err != nil {
		f.Fatal(err)
	}

	db, err := perfdb.Open(filepath.Join(dir, "perf"))
	if err != nil {
		f.Fatal(err)
	}
	doc := []byte(`{"L2": {"Hits": 4096}, "PerSCBusy": [1.5e6, 1.52e6], "Decoupled": true}`)
	if _, _, err := db.Ingest(perfdb.FormatAuto, "c1", "decoupled.json", doc); err != nil {
		f.Fatal(err)
	}
	db.Close()

	claim := struct {
		Node            string `json:"node"`
		RenewedUnixNano int64  `json:"renewed_unix_nano"`
	}{"alpha", 1700000000000000000}
	if err := durable.WriteRecord(filepath.Join(dir, "coordinator.claim.3"), nil, claim); err != nil {
		f.Fatal(err)
	}

	recs := []fuzzRecord{
		{name: "store entry", path: only(f, filepath.Join(dir, "store", "*.json"))},
		{name: "perf batch", path: only(f, filepath.Join(dir, "perf", "points", "*.json"))},
		{name: "claim", path: filepath.Join(dir, "coordinator.claim.3")},
	}
	for i := range recs {
		r := &recs[i]
		if r.raw, err = os.ReadFile(r.path); err != nil {
			f.Fatal(err)
		}
		if r.key, err = durable.ReadRecord(r.path, (*json.RawMessage)(&r.result)); err != nil {
			f.Fatalf("%s: pristine record does not read: %v", r.name, err)
		}
		if (len(r.key) > 0) != (i == 0) {
			f.Fatalf("%s: key %q; only the store entry is keyed", r.name, r.key)
		}
		inResult := binary.LittleEndian.AppendUint32(nil, uint32(8*(len(r.raw)-3)))
		f.Add(uint8(i), uint32(len(r.raw)), []byte(nil))
		f.Add(uint8(i), uint32(len(r.raw)/2), []byte(nil))
		f.Add(uint8(i), uint32(len(r.raw)-1), []byte(nil))
		f.Add(uint8(i), uint32(len(r.raw)), []byte{7, 0, 0, 0, 200, 1, 0, 0})
		f.Add(uint8(i), uint32(len(r.raw)), inResult)
	}
	// The empty file durable.Claim creates, before its winner's first
	// renewal fills it.
	f.Add(uint8(len(recs)-1), uint32(0), []byte(nil))
	scratch := filepath.Join(dir, "fuzzed")

	f.Fuzz(func(t *testing.T, kind uint8, cut uint32, flips []byte) {
		r := recs[int(kind)%len(recs)]
		b := append([]byte(nil), r.raw[:int(cut%uint32(len(r.raw)+1))]...)
		for i := 0; i+4 <= len(flips) && len(b) > 0; i += 4 {
			bit := binary.LittleEndian.Uint32(flips[i:]) % uint32(8*len(b))
			b[bit/8] ^= 1 << (bit % 8)
		}
		path := scratch
		if r.key != nil {
			path = r.path // the store reads its entry where it wrote it
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var result json.RawMessage
		key, err := durable.ReadRecord(path, &result)
		if err != nil && !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("%s: ReadRecord of an existing file: %v, want a corrupt-record error", r.name, err)
		}
		if err == nil && !bytes.Equal(result, r.result) {
			t.Fatalf("%s: ReadRecord returned altered result bytes", r.name)
		}
		if r.key == nil {
			if err == nil && key != nil {
				t.Fatalf("%s: ReadRecord returned key %q for a record written without one", r.name, key)
			}
			return
		}
		ownKey := err == nil && bytes.Equal(key, r.key)
		if served := st.HasCell(opt, cell); served != ownKey {
			t.Fatalf("store entry: served %v, but the record reads under its own key: %v (err %v)", served, ownKey, err)
		}
	})
}
