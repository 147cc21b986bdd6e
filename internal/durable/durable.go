// Package durable is the one on-disk record format: every file the
// system persists (a result-store entry, an epoch claim, a
// perf-database batch) is one record {"key", "sum", "result"} written
// whole by WriteFile, where sum is the CRC-64 (ECMA) of the result
// bytes and the optional key is an identity the reader checks itself. Nothing is appended to, so a crash leaves the previous
// record or an orphaned temp file, never a torn tail.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
)

// TempPrefix starts the name of every temp file WriteFile creates, so
// directory scans can skip an interrupted write's leftover.
const TempPrefix = ".tmp-"

// ErrCorrupt is wrapped by ReadRecord's error for a file that exists but
// does not hold a verifiable record.
var ErrCorrupt = errors.New("durable: corrupt record")

var crcTable = crc64.MakeTable(crc64.ECMA)

// Sum is the checksum records and the fleet wire protocol use to guard
// result payloads: CRC-64 (ECMA) over the exact bytes, hex encoded.
func Sum(b []byte) string {
	return fmt.Sprintf("%016x", crc64.Checksum(b, crcTable))
}

// WriteFile writes data under path so that path holds either its old
// content or all of data, never a torn mix: it writes a temp file in
// path's directory, fsyncs it and renames it over path.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), TempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("durable: write: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: rename: %w", err)
	}
	return nil
}

// Claim creates path as an empty file unless something is there, in
// which case the error matches os.ErrExist: of several racing callers
// exactly one succeeds. The winner then fills the file with WriteRecord.
func Claim(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// record is the on-disk envelope. Key is omitted when empty, so a keyed
// record is byte for byte the result store's entry format.
type record struct {
	Key    json.RawMessage `json:"key,omitempty"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// WriteRecord writes v's JSON as the result of one record under path,
// with key (compact JSON, or nil) beside it. A json.RawMessage result is
// kept as given when compact, as json.Marshal renders it.
func WriteRecord(path string, key []byte, v any) error {
	b, err := json.Marshal(v)
	if err == nil {
		b, err = json.Marshal(record{Key: key, Sum: Sum(b), Result: b})
	}
	if err != nil {
		return fmt.Errorf("durable: encode %s: %w", filepath.Base(path), err)
	}
	return WriteFile(path, b)
}

// ReadRecord verifies the record under path, decodes its result into v
// (a *json.RawMessage receives the exact bytes) and returns its key, nil
// when written without one. A missing file's error matches
// os.ErrNotExist; a record that does not verify or decode, ErrCorrupt.
func ReadRecord(path string, v any) (key []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%w: unparseable envelope", ErrCorrupt)
	}
	if r.Sum != Sum(r.Result) {
		return nil, fmt.Errorf("%w: result checksum mismatch", ErrCorrupt)
	}
	if err := json.Unmarshal(r.Result, v); err != nil {
		return nil, fmt.Errorf("%w: result does not decode: %v", ErrCorrupt, err)
	}
	return r.Key, nil
}
